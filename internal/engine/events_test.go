package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memory"
	"repro/internal/raster"
	"repro/internal/texture"
)

// randomWorks returns n random recorded triangles over a few small
// textures: magnified, identity and minified mappings, so runs range from
// one fragment to dozens, and a zero-pixel triangle now and then. Every
// fourth triangle maps all its pixels to nearly one texel: one cold miss,
// then a hit stretch of hundreds of fragments. The first of them starts
// from a clock of a few cycles, where one addition in place of the
// per-fragment increments would round differently.
func randomWorks(rng *rand.Rand, n int) []*PrecomputedWork {
	mgr := texture.NewManager()
	texs := []*texture.Texture{mgr.MustAdd(16, 16), mgr.MustAdd(64, 64), mgr.MustAdd(256, 32)}
	works := make([]*PrecomputedWork, n)
	for i := range works {
		scale := []float64{0.03, 0.25, 1, 2.5}[rng.Intn(4)]
		tw := TriangleWork{
			Tex: texs[rng.Intn(len(texs))],
			Map: geom.TexMap{U0: rng.Float64() * 64, V0: rng.Float64() * 64,
				DuDx: scale, DvDy: scale, DuDy: rng.Float64() * 0.1},
			LOD: rng.Float64()*3 - 0.5,
		}
		for y := rng.Intn(3); y < 5; y++ {
			x0 := rng.Intn(40)
			tw.Segments = append(tw.Segments, raster.Span{Y: y, X0: x0, X1: x0 + rng.Intn(90)})
		}
		switch {
		case i%17 == 5:
			tw.Segments = nil
		case i%4 == 0:
			tw.Map = geom.TexMap{U0: float64(i), DuDx: 1e-4}
			tw.Segments = []raster.Span{{X0: 0, X1: 300 + rng.Intn(200)}}
		}
		works[i] = &PrecomputedWork{Segments: tw.Segments}
		tw.Record(works[i])
	}
	return works
}

// refNode is the test's reference node: the timing model written out one
// fragment at a time over a live SetAssoc, sharing no code with the engine,
// so that a defect in the engine's shared routines (its hit stretches or its
// miss arithmetic) cannot hide in both sides of a comparison.
type refNode struct {
	l1, l2         *cache.SetAssoc
	bus, main      *memory.Bus
	ring           []float64
	pos            int
	time           float64
	stats          Stats
	setup          float64
	repeatsAreHits bool
}

func newRefNode(g cache.Config, depth int, bus memory.BusConfig) *refNode {
	l1 := cache.New(g)
	return &refNode{l1: l1, bus: memory.NewBus(bus), ring: make([]float64, depth),
		setup: DefaultSetupCycles, repeatsAreHits: l1.RepeatHits()}
}

// process times w arriving at arrival and returns its completion time.
func (r *refNode) process(arrival float64, w *PrecomputedWork) float64 {
	start := max(arrival, r.time)
	s := start
	for k, reps := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[k*8 : k*8+8])
		for j := int32(0); j < reps; j++ {
			s++
			var missed uint8
			if j == 0 || !r.repeatsAreHits {
				missed = r.l1.AccessFootprint(foot)
			} else {
				r.l1.AddHits(8)
			}
			if missed != 0 {
				lines, mainLines := 0, 0
				for i := range foot {
					if missed&(1<<i) == 0 {
						continue
					}
					lines++
					if r.l2 != nil && !r.l2.Access(foot[i]) {
						mainLines++
					}
				}
				issue := max(r.ring[r.pos], start)
				ready := r.bus.Fetch(issue, lines)
				if mainLines > 0 {
					ready = max(ready, r.main.Fetch(issue, mainLines))
				}
				if ready > s {
					r.stats.StallCycles += ready - s
					s = ready
				}
			}
			r.ring[r.pos] = s
			r.pos = (r.pos + 1) % len(r.ring)
			r.stats.Fragments++
		}
	}
	cost := s - start
	if cost < r.setup {
		cost = r.setup
		r.stats.SetupBound++
	}
	r.stats.Triangles++
	r.stats.BusyCycles += cost
	r.time = start + cost
	return r.time
}

// TestMissEventsMatchLiveProbe: an engine replaying the miss events
// RecordMisses records from a stream matches a node probing a live
// SetAssoc with the same stream (refNode) after every triangle — completion
// time, Time, Stats, cache, bus, L2 and main-bus counters — at geometries
// with and without RepeatHits, prefetch depths on both sides of the
// closed-form hit stretch, integral and fractional bus clocks and an
// infinite bus, with and without an L2, and for arrivals before and after
// the engine clock. The engine probing a live cache itself must match too.
// Each engine runs the stream twice across Reset.
func TestMissEventsMatchLiveProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	works := randomWorks(rng, 80)
	const line = 64
	geoms := []cache.Config{
		{SizeBytes: 16 * line, Ways: 1, LineBytes: line},
		{SizeBytes: 32 * line, Ways: 2, LineBytes: line},
		{SizeBytes: 4 * line, Ways: 4, LineBytes: line}, // one set
		{SizeBytes: 64 * line, Ways: 8, LineBytes: line},
		cache.PaperConfig(),
	}
	l2Geom := cache.Config{SizeBytes: 128 * line, Ways: 4, LineBytes: line}
	mainBus := memory.BusConfig{TexelsPerCycle: 0.5}
	// Arrival offsets from the reference clock: some before it (the
	// triangle waits), some after (the node idles), some fractional.
	offsets := make([]float64, len(works))
	for i := range offsets {
		offsets[i] = float64(rng.Intn(120)-60) + []float64{0, 0.5, 0.3}[i%3]
	}
	for _, g := range geoms {
		var ev MissEvents
		probe := cache.New(g)
		for _, w := range works {
			ev = recordAlone(probe, w, ev)
		}
		for _, depth := range []int{1, 2, 32, 33} {
			for _, tpc := range []float64{0.25, 1, 1.5, 3, 0} {
				for _, l2 := range []bool{false, true} {
					name := fmt.Sprintf("%+v depth %d bus %v L2 %v", g, depth, tpc, l2)
					bus := memory.BusConfig{TexelsPerCycle: tpc}
					engines := map[string]*Engine{
						"replay": NewReplaying(0, DefaultSetupCycles, depth, &ev, memory.NewBus(bus)),
						"live":   NewWithPrefetch(0, DefaultSetupCycles, depth, cache.New(g), memory.NewBus(bus)),
					}
					for _, e := range engines {
						if l2 {
							e.AttachL2(cache.New(l2Geom), memory.NewBus(mainBus))
						}
					}
					for pass := 0; pass < 2; pass++ {
						ref := newRefNode(g, depth, bus)
						if l2 {
							ref.l2, ref.main = cache.New(l2Geom), memory.NewBus(mainBus)
						}
						for _, e := range engines {
							e.Reset()
						}
						for i, w := range works {
							arrival := max(ref.time+offsets[i], 0)
							want := ref.process(arrival, w)
							var l2Stats cache.Stats
							var mainStats memory.BusStats
							if l2 {
								l2Stats, mainStats = ref.l2.Stats(), ref.main.Stats()
							}
							for kind, e := range engines {
								if got := e.ProcessPrecomputed(arrival, w); got != want || e.Time() != ref.time ||
									e.Stats() != ref.stats || e.CacheStats() != ref.l1.Stats() || e.BusStats() != ref.bus.Stats() ||
									e.L2Stats() != l2Stats || e.MainBusStats() != mainStats {
									t.Fatalf("%s %s pass %d triangle %d: done %v stats %+v cache %+v bus %+v, reference done %v stats %+v cache %+v bus %+v",
										name, kind, pass, i, got, e.Stats(), e.CacheStats(), e.BusStats(),
										want, ref.stats, ref.l1.Stats(), ref.bus.Stats())
								}
							}
						}
						if n := engines["replay"].MissEventsLeft(); n != 0 {
							t.Fatalf("%s pass %d: %d miss events unconsumed", name, pass, n)
						}
					}
				}
			}
		}
	}
}

// TestMissEventsMismatchLeftOver: events recorded from other work leave
// the replay off balance, so the run that ends so can fail instead of
// returning results: a record of two work items replayed with one has
// events left, and one replayed with two has run past its end.
func TestMissEventsMismatchLeftOver(t *testing.T) {
	_, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	w := PrecomputedWork{Segments: []raster.Span{{Y: 0, X0: 0, X1: 10}}}
	identityWork(tex, w.Segments...).Record(&w)
	one := recordAlone(cache.New(cache.PaperConfig()), &w, nil)
	two := recordAlone(cache.New(cache.PaperConfig()), &w, slices.Clone(one))
	for _, c := range []struct {
		name  string
		ev    MissEvents
		items int
		left  int
	}{{"events left", two, 1, len(one)}, {"work left", one, 2, -1}} {
		e := NewReplaying(0, DefaultSetupCycles, DefaultPrefetchDepth, &c.ev, memory.NewBus(memory.BusConfig{TexelsPerCycle: 1}))
		for range c.items {
			e.ProcessPrecomputed(e.Time(), &w)
		}
		if n := e.MissEventsLeft(); n != c.left {
			t.Errorf("%s: MissEventsLeft %d, want %d", c.name, n, c.left)
		}
	}
}

// TestMissEventsBridgeLongGaps: a hit stretch longer than an event's gap
// field holds is recorded with empty-mask events between the misses, and
// replays with the live engine's timing and counters.
func TestMissEventsBridgeLongGaps(t *testing.T) {
	_, tex := newTestEngine(cache.NewPerfect(), memory.BusConfig{})
	var cold, far PrecomputedWork
	identityWork(tex, raster.Span{X0: 0, X1: 1}).Record(&cold)
	identityWork(tex, raster.Span{Y: 100, X0: 100, X1: 101}).Record(&far)
	// One run of 2^24 fragments re-accessing cold's footprint, all hits,
	// then far's miss, in one work item.
	long := PrecomputedWork{Addrs: append(slices.Clone(cold.Addrs), far.Addrs...), Reps: []int32{1 << 24, 1}}
	works := []*PrecomputedWork{&cold, &long}
	var ev MissEvents
	probe := cache.New(cache.PaperConfig())
	for _, w := range works {
		ev = recordAlone(probe, w, ev)
	}
	// cold: miss, end; long: two bridging events, miss, end.
	if len(ev) != 6 || ev[2]&0x1ff != 0 || ev[3]&0x1ff != 0 || uint8(ev[4]) == 0 {
		t.Fatalf("events %x: want a miss, an end, two bridging events, a miss and an end", ev)
	}
	bus := memory.BusConfig{TexelsPerCycle: 1}
	live := NewWithPrefetch(0, DefaultSetupCycles, DefaultPrefetchDepth, cache.New(cache.PaperConfig()), memory.NewBus(bus))
	replay := NewReplaying(0, DefaultSetupCycles, DefaultPrefetchDepth, &ev, memory.NewBus(bus))
	for i, w := range works {
		// Late arrivals keep the clock above the stretch length, where
		// hit stretches take the closed form.
		if got, want := replay.ProcessPrecomputed(1<<26, w), live.ProcessPrecomputed(1<<26, w); got != want ||
			replay.Stats() != live.Stats() || replay.CacheStats() != live.CacheStats() || replay.BusStats() != live.BusStats() {
			t.Fatalf("work %d: replay done %v stats %+v cache %+v, live done %v stats %+v cache %+v",
				i, got, replay.Stats(), replay.CacheStats(), want, live.Stats(), live.CacheStats())
		}
	}
	if n := replay.MissEventsLeft(); n != 0 {
		t.Errorf("%d events left", n)
	}
}

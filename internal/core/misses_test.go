package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/trace"
)

// TestMissRecordMatchesLive: a machine replaying a miss record reproduces the
// live-probing run byte for byte at geometries where the engine accounts a
// run's repeats in bulk and where it probes every fragment (RepeatHits
// false: 1-way, 2-way, one set), all recorded in one pass, on one frame and
// across a two-frame sequence, on both kernels, behind an L2, at bus ratios
// whose clocks are integral (1) and fractional (1.5, 3), and at prefetch
// depths 1, 32 and 33.
// Each replaying machine runs twice, the second run after the Reset every
// run begins with. The record holds exactly one event per probe that
// misses, and one per work item.
func TestMissRecordMatchesLive(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "quake", 0.1)
	const line = 64
	geoms := []cache.Config{
		{SizeBytes: 16 * line, Ways: 1, LineBytes: line},
		{SizeBytes: 32 * line, Ways: 2, LineBytes: line},
		{SizeBytes: 4 * line, Ways: 4, LineBytes: line}, // one set
		{SizeBytes: 8 * line, Ways: 8, LineBytes: line}, // one set, repeats hit
		cache.PaperConfig(),
	}
	timings := []struct {
		bus   float64
		depth int
	}{{1, 32}, {1.5, 1}, {1.5, 33}, {3, 1}, {3, 33}}
	for _, frames := range [][]*trace.Scene{{s}, scene.PanSequence(s, 2, 16, 8)} {
		a, err := BuildRasterArtifact(ctx, frames, 4, distrib.BlockKind, 8, ArtifactOpts{})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RecordMisses(ctx, a, frames, geoms, 2)
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range geoms {
			rec := recs[gi]
			checkEventCounts(t, a, g, rec)
			for _, buf := range []int{DefaultTriangleBuffer, goldenSmallBuffer} {
				for _, l2 := range []bool{false, true} {
					for _, tm := range timings {
						cfg := Config{Procs: 4, TileSize: 8, CacheConfig: g, TriangleBuffer: buf,
							PrefetchDepth: tm.depth, Bus: memory.BusConfig{TexelsPerCycle: tm.bus}}
						if l2 {
							cfg.L2Config, cfg.MainBus = l2Config(), memory.BusConfig{TexelsPerCycle: 0.5}
						}
						name := fmt.Sprintf("%d frames %+v buffer %d L2 %v bus %v depth %d",
							len(frames), g, buf, l2, tm.bus, tm.depth)
						checkRecordedRuns(t, name, frames, cfg, a, rec)
					}
				}
			}
		}
	}
}

// checkRecordedRuns runs frames on cfg probing live, then twice on one
// machine replaying artifact a and record rec, and fails unless every run
// returns the live results' bytes.
func checkRecordedRuns(t *testing.T, name string, frames []*trace.Scene, cfg Config, a *RasterArtifact, rec *MissRecord) {
	t.Helper()
	lm, err := NewMachine(frames[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := lm.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(frames[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMissRecord(rec); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got, err := m.RunSequence(frames)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, run, err)
		}
		if digestJSON(t, got) != digestJSON(t, live) {
			t.Errorf("%s run %d: replayed record diverged from live probing\nlive:   %+v\nrecord: %+v",
				name, run, live[0].Nodes[0], got[0].Nodes[0])
		}
	}
}

// checkEventCounts fails unless rec holds, per node, exactly one event with
// a nonzero miss mask per probe of a's footprint streams that misses on a
// cache of geometry g — probes made one per run when repeats hit, one per
// fragment otherwise — and one item-end event per work item.
func checkEventCounts(t *testing.T, a *RasterArtifact, g cache.Config, rec *MissRecord) {
	t.Helper()
	for p := 0; p < a.Procs; p++ {
		c, misses, items := cache.New(g), 0, 0
		for _, f := range a.Frames {
			for _, ref := range f.perNode[p] {
				w := &f.Tris[ref.tri].Dests[ref.dest].Work
				items++
				for r, reps := range w.Reps {
					if c.RepeatHits() {
						reps = 1
					}
					for range reps {
						if c.AccessFootprint((*[8]texture.Addr)(w.Addrs[r*8:r*8+8])) != 0 {
							misses++
						}
					}
				}
			}
		}
		var gotMisses, gotItems int
		for _, e := range rec.nodes[p] {
			switch {
			case e&(1<<8) != 0:
				gotItems++
			case uint8(e) != 0:
				gotMisses++
			default:
				t.Fatalf("%+v node %d: an empty-mask event %x", g, p, e)
			}
		}
		if gotMisses != misses || gotItems != items {
			t.Errorf("%+v node %d: %d miss events and %d item ends, want exactly %d and %d",
				g, p, gotMisses, gotItems, misses, items)
		}
	}
}

// TestMissRecordConcurrentRecordings: recordings running at once, as the
// sweep planner runs them for different classes, each match recordings of
// one geometry at a time on one worker (run it under -race: the workers of
// one recording share its caches and buffers across nodes).
func TestMissRecordConcurrentRecordings(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(ctx, frames, 16, distrib.BlockKind, 8, ArtifactOpts{SpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var geoms []cache.Config
	for kb := 1; kb <= 32; kb *= 2 {
		geoms = append(geoms, cache.Config{SizeBytes: kb << 10, Ways: 4, LineBytes: 64})
	}
	alone := make([]*MissRecord, len(geoms))
	for i, g := range geoms {
		recs, err := RecordMisses(ctx, a, frames, []cache.Config{g}, 1)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = recs[0]
	}
	const concurrent = 3
	recs := make([][]*MissRecord, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i], errs[i] = RecordMisses(ctx, a, frames, geoms, 4)
		}()
	}
	wg.Wait()
	for i := range recs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for g := range geoms {
			for p := range alone[g].nodes {
				if !slices.Equal(recs[i][g].nodes[p], alone[g].nodes[p]) {
					t.Fatalf("recording %d %+v node %d: differs from a recording of the geometry alone", i, geoms[g], p)
				}
			}
		}
	}
}

// TestMissRecordForeignEventsFail: a record whose events do not fit the
// attached artifact's work fails the run instead of producing a result.
// Here the record was made on a two-frame sequence and its identity check
// is bypassed, as a stale record would be, to replay its first frame alone:
// the second frame's events are left over. The reverse, a one-frame record
// under a two-frame artifact, runs past the record's end.
func TestMissRecordForeignEventsFail(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	frames := scene.PanSequence(s, 2, 16, 8)
	build := func(frames []*trace.Scene) *RasterArtifact {
		a, err := BuildRasterArtifact(ctx, frames, 4, distrib.BlockKind, 16, ArtifactOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	one, two := build(frames[:1]), build(frames)
	for _, c := range []struct {
		name      string
		from, run *RasterArtifact
	}{{"two-frame record, one frame run", two, one}, {"one-frame record, two frames run", one, two}} {
		recs, err := RecordMisses(ctx, c.from, frames[:len(c.from.Frames)], []cache.Config{cache.PaperConfig()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := recs[0]
		rec.artifact = c.run
		for _, buf := range []int{DefaultTriangleBuffer, goldenSmallBuffer} {
			m, err := NewMachine(s, Config{Procs: 4, TriangleBuffer: buf, Bus: memory.BusConfig{TexelsPerCycle: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetRasterArtifact(c.run); err != nil {
				t.Fatal(err)
			}
			if err := m.SetMissRecord(rec); err != nil {
				t.Fatal(err)
			}
			if res, err := m.RunSequenceContext(ctx, frames[:len(c.run.Frames)]); err == nil || !strings.Contains(err.Error(), "does not fit") {
				t.Errorf("%s, buffer %d: returned %v, %v; want a misfit error", c.name, buf, res, err)
			}
		}
	}
}

// TestSetMissRecordRejectsMismatch: a recording refuses frames other than
// its artifact's (and records empty streams for a frameless one); a record
// attaches only to a real-cache machine of its geometry that has its
// artifact attached, and behind an L2 only when that artifact carries the
// footprints the L2 probes; and a run refuses a record whose artifact was
// swapped out after attaching.
func TestSetMissRecordRejectsMismatch(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	build := func(opts ArtifactOpts) *RasterArtifact {
		a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 4, distrib.BlockKind, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, other, spans := build(ArtifactOpts{}), build(ArtifactOpts{}), build(ArtifactOpts{SpansOnly: true})
	renamed, fewer := *s, *s
	renamed.Name += "-renamed"
	fewer.Triangles = fewer.Triangles[1:]
	for name, frames := range map[string][]*trace.Scene{
		"no frames":            nil,
		"two frames":           {s, s},
		"other name":           {&renamed},
		"other triangle count": {&fewer},
	} {
		if _, err := RecordMisses(ctx, a, frames, []cache.Config{cache.PaperConfig()}, 0); err == nil {
			t.Errorf("%s: recorded misses from frames the artifact was not built from", name)
		}
	}
	frameless := *a
	frameless.Frames = nil
	if recs, err := RecordMisses(ctx, &frameless, nil, []cache.Config{cache.PaperConfig()}, 0); err != nil || len(recs) != 1 {
		t.Errorf("frameless artifact: %v, %v; want one record of empty streams", recs, err)
	}
	record := func(art *RasterArtifact) *MissRecord {
		recs, err := RecordMisses(ctx, art, []*trace.Scene{s}, []cache.Config{cache.PaperConfig()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return recs[0]
	}
	rec := record(a)
	machine := func(cfg Config, art *RasterArtifact) *Machine {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(art); err != nil {
			t.Fatal(err)
		}
		return m
	}
	realCfg := Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	bad := map[string]*Machine{
		"no artifact":         machine(realCfg, nil),
		"other artifact":      machine(realCfg, other),
		"other geometry":      machine(Config{Procs: 4, CacheConfig: cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}}, a),
		"perfect cache":       machine(Config{Procs: 4, CacheKind: CachePerfect}, a),
		"cacheless":           machine(Config{Procs: 4, CacheKind: CacheNone}, a),
		"other associativity": machine(Config{Procs: 4, CacheConfig: cache.Config{SizeBytes: 16384, Ways: 8, LineBytes: 64}}, a),
	}
	for name, m := range bad {
		if err := m.SetMissRecord(rec); err == nil {
			t.Errorf("%s: attached a mismatched miss record", name)
		}
	}
	withL2 := realCfg
	withL2.L2Config = l2Config()
	if err := machine(withL2, spans).SetMissRecord(record(spans)); err == nil {
		t.Error("attached a spans-only artifact's record behind an L2")
	}
	if err := machine(withL2, a).SetMissRecord(rec); err != nil {
		t.Errorf("a footprint artifact's record behind an L2: %v", err)
	}
	m := machine(realCfg, a)
	if err := m.SetMissRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(other); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); err == nil || !strings.Contains(err.Error(), "miss record") {
		t.Errorf("ran a miss record against a swapped artifact: %v", err)
	}
	if err := m.SetMissRecord(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); err != nil {
		t.Errorf("detached record: %v", err)
	}
}

// TestMissRecordAllocatesNoL1Tags: a machine replaying a record builds no L1
// tag arrays. With a 4 MB L1 (256 KB of tags per node) on 8 nodes, the whole
// run allocates less than one node's tags; the same run probing live
// allocates all eight.
func TestMissRecordAllocatesNoL1Tags(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	big := cache.Config{SizeBytes: 4 << 20, Ways: 4, LineBytes: 64}
	const tagBytes = (4 << 20) / 64 * 4
	cfg := Config{Procs: 8, CacheConfig: big, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 8, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordMisses(ctx, a, []*trace.Scene{s}, []cache.Config{big}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	allocated := func(withRecord bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		if withRecord {
			if err := m.SetMissRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if live := allocated(false); live < 8*tagBytes {
		t.Fatalf("live run allocated %d bytes, less than its %d bytes of L1 tags", live, 8*tagBytes)
	}
	if replayed := allocated(true); replayed >= tagBytes {
		t.Errorf("replaying run allocated %d bytes, at least one node's %d bytes of L1 tags", replayed, tagBytes)
	}
}

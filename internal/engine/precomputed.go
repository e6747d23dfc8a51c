// The precomputed-replay path: ProcessTriangle's texel address generation —
// the trilinear footprint per fragment, about 37% of a cold frame's CPU
// time against 26% for the cache probe (pprof of cold Table 1 frames at
// scale 0.5 on 16 nodes, 2-core Xeon, Go 1.24) — depends only on the
// triangle's texture mapping and owned segments, never on the cache or bus
// configuration. A raster artifact (internal/core) therefore records each
// fragment's 8-address footprint once (Record), run-length encoded over
// consecutive identical footprints, and ProcessPrecomputed replays it into
// any cache/bus configuration with byte-identical timing and counters.
//
// Equivalence contract: ProcessTriangle times every fragment with
// scanFragment, and ProcessPrecomputed times each fragment it probes the
// same way. A run's repeated fragments re-access a footprint the previous
// fragment just touched; when the cache model guarantees such repeats hit
// without disturbing replacement state (cache.Model.RepeatHits), the replay
// accounts them in bulk and skips the lookups. Models without the guarantee
// (the cacheless model) replay every repeat as real accesses. A hit
// fragment only advances the scan clock by one cycle and enters the
// prefetch ring, and hits does exactly that for a stretch of them, so for
// the same arrival and the same triangle every path computes the same
// floating-point values in the same order: a stretch longer than the ring
// skips ahead in one addition that equals the per-fragment increments
// (see hits).
//
// Probe-order contract: for each run of w.Reps, in order, ProcessPrecomputed
// calls the L1's AccessFootprint once with the run's footprint when the
// model's RepeatHits holds, and once per fragment of the run otherwise; a
// pure-scan engine makes no calls. Nothing else — not the bus, the buffers,
// the prefetch depth nor the setup cost — changes which calls are made or
// what they return, so RecordMisses, which makes exactly these probes
// (through ProbeFootprint, AccessFootprint's body, skipping only probes
// proven to hit and change nothing), keeps every miss a replay of the same
// work sees as a miss event (MissEvents), and those events stand in for the
// L1 of any configuration with the same cache geometry (NewReplaying). A
// replaying engine's work is proportional to triangles plus misses, not to
// fragments: between two events every fragment hit, so it advances the
// clock over the stretch with hits, and at each event it does
// scanFragment's miss arithmetic. Without an L2 it never reads the
// footprints. In a memoized dense sweep (8 cache sizes × 4 bus ratios on 64
// nodes, perfbench sweep_dense; pprof of 4 rounds of its three specs,
// 2-core Xeon, Go 1.24) replay takes 40% of the CPU time — replayMisses 32%
// with hits and scanFragment inside it — the recording pass, one per raster
// class over all its geometries (RecordMisses over Chains), 50%:
// SetAssoc.ProbeFootprint 27% and footprint generation 11%. Spans-only
// artifact builds take 4%. With one recording pass per geometry, over
// footprints stored in the artifact, the shares were 26%, 52% (the probe
// 39%) and 13%, and the rounds took 1.6× the wall time.
package engine

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/raster"
	"repro/internal/texture"
)

// PrecomputedWork is one triangle's contribution to one node with the texel
// address stream already generated: the replayable counterpart of
// TriangleWork. Addrs holds one 8-address trilinear footprint per run and
// Reps the run's fragment count; runs are in fragment scan order and may
// cross segment boundaries.
type PrecomputedWork struct {
	// Segments are the owned pixel segments, identical to the TriangleWork
	// the distributor would have built (the pure-scan path uses them).
	Segments []raster.Span
	// Addrs is the run-length-encoded footprint stream: 8 addresses per run.
	Addrs []texture.Addr
	// Reps holds each run's fragment count; len(Addrs) == 8*len(Reps) and
	// the Reps sum to the fragment count of Segments.
	Reps []int32
}

// Frags returns the total fragment count of the owned segments.
func (w *PrecomputedWork) Frags() int {
	n := 0
	for _, sp := range w.Segments {
		n += sp.Width()
	}
	return n
}

// Record appends w's footprint stream to out: the addresses ProcessTriangle
// generates for w, with the same per-span u/v arithmetic, run-length encoded
// over consecutive identical footprints.
func (w *TriangleWork) Record(out *PrecomputedWork) {
	var foot, prev [8]texture.Addr
	have := false
	for _, sp := range w.Segments {
		u, v := spanUV(w.Map, sp)
		for x := sp.X0; x < sp.X1; x++ {
			w.Tex.TrilinearFootprint(u, v, w.LOD, &foot)
			if have && foot == prev && out.Reps[len(out.Reps)-1] < math.MaxInt32 {
				out.Reps[len(out.Reps)-1]++
			} else {
				out.Addrs = append(out.Addrs, foot[:]...)
				out.Reps = append(out.Reps, 1)
				prev = foot
				have = true
			}
			u += w.Map.DuDx
			v += w.Map.DvDx
		}
	}
}

// ProcessPrecomputed runs one triangle whose footprints were precomputed
// through the pipeline, beginning no earlier than arrival, and returns the
// absolute completion time — ProcessTriangle with the address generation
// replaced by the recorded stream. Byte-identical to ProcessTriangle for a
// work item built from the same triangle on the same scene. Its L1 probes
// follow the package comment's probe-order contract; a replaying engine
// (NewReplaying) reads its miss events instead.
func (e *Engine) ProcessPrecomputed(arrival float64, w *PrecomputedWork) float64 {
	start := e.StartTriangle(arrival)
	stall0 := e.stats.StallCycles
	if e.pureScan {
		return e.finishTriangle(start, stall0, e.scanPure(start, w.Segments))
	}
	if e.events != nil {
		return e.finishTriangle(start, stall0, e.replayMisses(start, w))
	}
	s := start
	for r := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8 : r*8+8])
		reps := int(w.Reps[r])
		if !e.repeatHits {
			for j := 0; j < reps; j++ {
				s = e.scanFragment(start, s, e.cache.AccessFootprint(foot), foot)
			}
			continue
		}
		s = e.scanFragment(start, s, e.cache.AccessFootprint(foot), foot)
		if reps > 1 {
			// The remaining fragments of the run re-access the footprint
			// the fragment before them just touched: guaranteed hits that
			// leave the cache state untouched.
			e.cache.AddHits(uint64(reps-1) * 8)
			s = e.hits(s, reps-1)
		}
	}
	return e.finishTriangle(start, stall0, s)
}

// MissEvents is one node's recorded L1 miss stream: per work item, in
// order, an event for every probe that missed, in probe order, then an
// item-end event. An event packs the probe's miss mask in its low 8 bits,
// the item-end flag (missEnd) above them and, in the bits above that, the
// number of hit fragments before its own fragment — or, for an item end,
// before the item's end. A longer hit stretch than maxMissGap is bridged by
// events with an empty mask, which replay as hits.
type MissEvents []uint32

const (
	missEnd      = 1 << 8
	missGapShift = 9
	maxMissGap   = 1<<(32-missGapShift) - 1
)

// replayMisses times w's fragments, scanned from start, from the engine's
// miss events up to w's item end: hit stretches in bulk, each event with
// scanFragment. Only with an L2 attached does it read w, whose runs a
// cursor walks to find a missing fragment's footprint. Work past the end of
// the events steps the cursor past it (MissEventsLeft < 0).
func (e *Engine) replayMisses(start float64, w *PrecomputedWork) float64 {
	ev, s, base := *e.events, start, e.stats.Fragments
	run, runEnd := -1, 0
	for e.next < len(ev) {
		x := ev[e.next]
		e.next++
		gap := int(x >> missGapShift)
		s = e.hits(s, gap)
		if x&missEnd != 0 {
			return s
		}
		missed := uint8(x)
		e.l1Misses += uint64(bits.OnesCount8(missed))
		var foot *[8]texture.Addr
		if e.l2 != nil {
			f := int(e.stats.Fragments - base) // the missing fragment of w
			for runEnd <= f {
				run++
				runEnd += int(w.Reps[run])
			}
			foot = (*[8]texture.Addr)(w.Addrs[run*8 : run*8+8])
		}
		s = e.scanFragment(start, s, missed, foot)
	}
	e.next++
	return s
}

// RecordMisses probes every cache of chain with w's footprints as
// ProcessPrecomputed on an engine whose L1 is that cache does (the package
// comment's probe-order contract) and appends w's miss events for chain[i]
// to outs[i]: one per probe that misses, then the item end. from[i] counts
// w's fragments up to and including stream i's last event so far, so the
// next event's gap is the fragments since. It is zero on entry and again on
// return; the caller keeps it only so that a call allocates nothing.
//
// chain is one of Chains' chains, in order. Each probe walks it smallest
// first, and at the first cache the probe leaves still, every later cache
// hits without a lookup: a line that is its set's MRU in a cache is the
// most recent reference among the lines of that set, so it is also the most
// recent among the fewer lines of its set in a cache whose sets split those
// of the first, and so its MRU there.
func RecordMisses(chain []*cache.SetAssoc, w *PrecomputedWork, outs []MissEvents, from []int) {
	probes := int32(1) // per run: its repeats hit
	if !chain[0].RepeatHits() {
		probes = math.MaxInt32 // per fragment
	}
	f := 0 // fragments of w before the probed one
	for r, reps := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8 : r*8+8])
		n := min(reps, probes)
		for range n {
			for i, c := range chain {
				missed, still := c.ProbeFootprint(foot)
				if missed != 0 {
					outs[i], from[i] = appendMissEvent(outs[i], f-from[i], uint32(missed)), f+1
				} else if still {
					break
				}
			}
			f++
		}
		f += int(reps - n)
	}
	for i := range chain {
		outs[i], from[i] = appendMissEvent(outs[i], f-from[i], missEnd), 0
	}
}

// Chains partitions cache geometries into RecordMisses chains, smallest
// first: each geometry joins the first chain whose last geometry it can
// follow and otherwise starts its own. It returns the geometries' indices
// chain by chain and each chain's end in that order.
func Chains(cfgs []cache.Config) (order, ends []int) {
	bySize := make([]int, len(cfgs))
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortStableFunc(bySize, func(i, j int) int {
		a, b := cfgs[i], cfgs[j]
		return cmp.Or(cmp.Compare(a.LineBytes, b.LineBytes), cmp.Compare(a.SizeBytes, b.SizeBytes), cmp.Compare(a.Ways, b.Ways))
	})
	var chains [][]int
next:
	for _, g := range bySize {
		for k, ch := range chains {
			if follows(cfgs[ch[len(ch)-1]], cfgs[g]) {
				chains[k] = append(ch, g)
				continue next
			}
		}
		chains = append(chains, []int{g})
	}
	for _, ch := range chains {
		order = append(order, ch...)
		ends = append(ends, len(order))
	}
	return order, ends
}

// follows reports whether geometry g may follow prev in a chain: the same
// line size and RepeatHits, so the two see the same probes, at least as
// many ways, and a set count that is a multiple of prev's. Bit-selection
// indexing then sends each of g's sets a subsequence of one of prev's sets'
// references, and LRU with at least as many ways keeps a superset of its
// lines (Mattson et al. 1970; Hill and Smith 1989): a probe's miss mask on
// g is a subset of its mask on prev.
func follows(prev, g cache.Config) bool {
	return g.LineBytes == prev.LineBytes && g.RepeatHits() == prev.RepeatHits() &&
		g.Ways >= prev.Ways && g.Sets()%prev.Sets() == 0
}

// appendMissEvent appends the event low (a mask or missEnd) after gap hit
// fragments, bridging a gap longer than maxMissGap. It grows out by
// doubling, which leaves less garbage than append's smaller steps.
func appendMissEvent(out MissEvents, gap int, low uint32) MissEvents {
	for ; gap > maxMissGap; gap -= maxMissGap + 1 {
		out = append(out, maxMissGap<<missGapShift)
	}
	if len(out) == cap(out) {
		out = slices.Grow(out, max(len(out), 1024))
	}
	return append(out, uint32(gap)<<missGapShift|low)
}

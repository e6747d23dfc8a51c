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
// what they return, so RecordMisses, which makes exactly these calls, keeps
// every miss a replay of the same work sees as a miss event (MissEvents),
// and those events stand in for the L1 of any configuration with the same
// cache geometry (NewReplaying). A replaying engine's work is proportional
// to triangles plus misses, not to fragments: between two events every
// fragment hit, so it advances the clock over the stretch with hits, and at
// each event it does scanFragment's miss arithmetic. Without an L2 it never reads
// the footprints. In a memoized dense sweep (8 cache sizes × 4 bus ratios
// on 64 nodes, perfbench sweep_dense; pprof of 4 rounds of its three specs,
// 2-core Xeon, Go 1.24) replay takes 25% of the CPU time — replayMisses 21%
// with hits and scanFragment inside it — recording, one probe pass per cache
// geometry and raster class, 57% (SetAssoc.AccessFootprint 40%), and
// artifact builds 14%. Before miss events, replay took 54%.
package engine

import (
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

// RecordMisses probes c with w's footprints as ProcessPrecomputed on an
// engine whose L1 is c does (the package comment's probe-order contract)
// and appends w's miss events to out: one per probe that misses, then the
// item end.
func RecordMisses(c cache.Model, w *PrecomputedWork, out MissEvents) MissEvents {
	probes := int32(1) // per run: its repeats hit
	if !c.RepeatHits() {
		probes = math.MaxInt32 // per fragment
	}
	gap := 0
	for r, reps := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8 : r*8+8])
		n := min(reps, probes)
		for range n {
			if missed := c.AccessFootprint(foot); missed != 0 {
				out, gap = appendMissEvent(out, gap, uint32(missed)), 0
			} else {
				gap++
			}
		}
		gap += int(reps - n)
	}
	return appendMissEvent(out, gap, missEnd)
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

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
// Equivalence contract: both paths time every fragment with scanFragment,
// so for the same arrival and the same triangle ProcessPrecomputed performs
// the same floating-point operations in the same order as ProcessTriangle.
// A run's repeated fragments re-access a footprint the previous fragment
// just touched; when the cache model guarantees such repeats hit without
// disturbing replacement state (cache.Model.RepeatHits), the replay accounts
// them in bulk and skips the lookups — the fast path that makes replay
// several times cheaper than simulation. Models without the guarantee (the
// cacheless model) replay every repeat as real accesses.
//
// Probe-order contract: for each run of w.Reps, in order, ProcessPrecomputed
// calls the L1's AccessFootprint once with the run's footprint when the
// model's RepeatHits holds, and once per fragment of the run otherwise; a
// pure-scan engine makes no calls. Nothing else — not the bus, the buffers,
// the prefetch depth nor the setup cost — changes which calls are made, so
// RecordMisses, which makes exactly these calls, captures every miss mask a
// replay of the same work sees, and a cache.Replay of those masks stands in
// for the L1 of any configuration with the same cache geometry. In a
// memoized dense sweep (8 cache sizes × 4 bus ratios on 64 nodes, perfbench
// sweep_dense; pprof on the same host) replay then takes 55% of the CPU
// time — the run loop here 26%, scanFragment 10%, the replayed probe 14% —
// and recording, one probe pass per cache geometry, 31%.
package engine

import (
	"math"

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
// follow the package comment's probe-order contract.
func (e *Engine) ProcessPrecomputed(arrival float64, w *PrecomputedWork) float64 {
	start := e.StartTriangle(arrival)
	stall0 := e.stats.StallCycles
	if e.pureScan {
		return e.finishTriangle(start, stall0, e.scanPure(start, w.Segments))
	}
	s := start
	for r := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8 : r*8+8])
		reps := int(w.Reps[r])
		if !e.repeatHits {
			for j := 0; j < reps; j++ {
				s = e.scanFragment(start, s, foot)
			}
			continue
		}
		s = e.scanFragment(start, s, foot)
		if reps > 1 {
			// The remaining fragments of the run re-access the footprint
			// the fragment before them just touched: guaranteed hits that
			// leave the cache state untouched, no misses, no stalls. Only
			// the scan clock, the prefetch ring and the counters move.
			e.cache.AddHits(uint64(reps-1) * 8)
			for j := 1; j < reps; j++ {
				s++
				e.ring[e.ringPos] = s
				e.ringPos++
				if e.ringPos == len(e.ring) {
					e.ringPos = 0
				}
			}
			e.stats.Fragments += uint64(reps - 1)
		}
	}
	return e.finishTriangle(start, stall0, s)
}

// RecordMisses drives c with the AccessFootprint and AddHits calls
// ProcessPrecomputed makes for w on an engine whose L1 is c (the package
// comment's probe-order contract) and appends each call's miss mask to out.
// c is left in the state, counters included, that replay leaves it in.
func RecordMisses(c cache.Model, w *PrecomputedWork, out []uint8) []uint8 {
	repeatHits := c.RepeatHits()
	for r, reps := range w.Reps {
		foot := (*[8]texture.Addr)(w.Addrs[r*8 : r*8+8])
		if !repeatHits {
			for j := int32(0); j < reps; j++ {
				out = append(out, c.AccessFootprint(foot))
			}
			continue
		}
		out = append(out, c.AccessFootprint(foot))
		if reps > 1 {
			c.AddHits(uint64(reps-1) * 8)
		}
	}
	return out
}

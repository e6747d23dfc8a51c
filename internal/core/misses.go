// Miss records: the cache half of the frame path, recorded once. The paper
// models the texture cache functionally and the external bus as bandwidth
// alone, its latency hidden by prefetching, so a node's L1 hit/miss sequence
// is a function of its footprint stream and the cache geometry only. Bus
// bandwidth, buffer depth, prefetch depth and setup cost move when a probe
// happens in simulated time, never which probes happen or what they return
// (engine's probe-order contract). A MissRecord therefore holds every node's
// L1 miss masks for one (raster artifact, cache geometry) pair, and machines
// that replay that artifact on that geometry replay the masks instead of
// probing: their L1s are cache.Replay models with no tag arrays. An L2,
// when configured, is still probed live with the recorded misses.
//
// Both kernels consume a record unchanged, because both replay each node's
// work in submission order, and the record spans every frame of a sequence
// just as the caches stay warm across frames.
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
)

// MissRecord is the L1 miss-mask stream of every node of one raster
// artifact's frame sequence on one cache geometry. Build it with
// RecordMisses and attach it with Machine.SetMissRecord.
type MissRecord struct {
	// Cache is the L1 geometry the masks were recorded on.
	Cache      cache.Config
	artifact   *RasterArtifact
	repeatHits bool
	// masks holds every node's masks, node-major, in one exact-size backing
	// array; nodes[p] is node p's slice of it.
	masks []uint8
	nodes [][]uint8
}

// RecordMisses probes a cache of geometry cfg per node with the node's
// footprint streams in a (footprint-carrying) artifact, frame after frame,
// and records every probe's miss mask. Nodes record in parallel on up to
// workers goroutines (<=0 = GOMAXPROCS). reuse, when non-nil, is a record
// no longer in use: the new record takes over its mask buffer when it is
// big enough, and reuse must not be used again.
func RecordMisses(ctx context.Context, a *RasterArtifact, cfg cache.Config, workers int, reuse *MissRecord) (*MissRecord, error) {
	if !a.HasFootprints {
		return nil, fmt.Errorf("core: miss record needs an artifact with footprints")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, a.Procs)
	// One cache per worker, reset between the nodes it records.
	first := cache.New(cfg)
	free := make(chan *cache.SetAssoc, workers)
	free <- first
	for range workers - 1 {
		free <- cache.New(cfg)
	}
	r := &MissRecord{Cache: cfg, artifact: a, repeatHits: first.RepeatHits()}

	// Size every node's stream exactly: one probe per run when repeats
	// are accounted in bulk, one per fragment otherwise.
	counts := make([]int, a.Procs)
	total := 0
	for p := range counts {
		for _, f := range a.Frames {
			for _, ref := range f.perNode[p] {
				w := &f.Tris[ref.tri].Dests[ref.dest].Work
				if r.repeatHits {
					counts[p] += len(w.Reps)
				} else {
					for _, n := range w.Reps {
						counts[p] += int(n)
					}
				}
			}
		}
		total += counts[p]
	}
	if reuse != nil && cap(reuse.masks) >= total {
		r.masks = reuse.masks[:total]
	} else {
		r.masks = make([]uint8, total)
	}
	r.nodes = make([][]uint8, a.Procs)
	off := 0
	for p, n := range counts {
		r.nodes[p] = r.masks[off : off+n : off+n]
		off += n
	}

	err := par.ForEach(ctx, workers, a.Procs, func(p int) error {
		c := <-free
		defer func() { free <- c }()
		c.Reset()
		out := r.nodes[p][:0]
		for _, f := range a.Frames {
			for k, ref := range f.perNode[p] {
				if k%ctxPollTriangles == 0 && k > 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				out = engine.RecordMisses(c, &f.Tris[ref.tri].Dests[ref.dest].Work, out)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// SetMissRecord attaches a miss record: subsequent runs replay its masks in
// place of probing each node's L1, with byte-identical results, and the
// machine allocates no L1 tag arrays. The record must have been made from
// the machine's attached raster artifact (attach that first) on the
// machine's real-cache geometry. Pass nil to detach.
func (m *Machine) SetMissRecord(r *MissRecord) error {
	if r != nil {
		switch {
		case m.cfg.CacheKind != CacheReal:
			return fmt.Errorf("core: miss record needs a real cache, machine has %s", m.cfg.CacheKind)
		case r.Cache != m.cfg.CacheConfig:
			return fmt.Errorf("core: miss record is for cache %+v, machine has %+v", r.Cache, m.cfg.CacheConfig)
		case r.artifact != m.artifact:
			return fmt.Errorf("core: miss record was made from a different raster artifact than the attached one")
		}
	}
	m.misses = r
	m.engines = nil // rebuilt on the next run with the new L1 models
	return nil
}

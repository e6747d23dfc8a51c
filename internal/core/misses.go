// Miss records: the cache half of the frame path, recorded once. The paper
// models the texture cache functionally and the external bus as bandwidth
// alone, its latency hidden by prefetching, so a node's L1 hit/miss sequence
// is a function of its footprint stream and the cache geometry only. Bus
// bandwidth, buffer depth, prefetch depth and setup cost move when a probe
// happens in simulated time, never which probes happen or what they return
// (engine's probe-order contract). A MissRecord therefore holds every node's
// L1 miss events for one (raster artifact, cache geometry) pair — one per
// probe that missed, with its mask and the hits before it — and machines
// that replay that artifact on that geometry run their nodes as replaying
// engines with no tag arrays, which time a stretch of hits in bulk. An L2,
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
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
)

// MissRecord is the L1 miss-event stream of every node of one raster
// artifact's frame sequence on one cache geometry. Build it with
// RecordMisses and attach it with Machine.SetMissRecord.
type MissRecord struct {
	// Cache is the L1 geometry the events were recorded on.
	Cache    cache.Config
	artifact *RasterArtifact
	// nodes[p] is node p's event stream.
	nodes []engine.MissEvents
}

// RecordMisses probes a cache of geometry cfg per node with the node's
// footprint streams in a (footprint-carrying) artifact, frame after frame,
// and records engine.MissEvents: an event for every probe that misses and
// one for each work item's end. Nodes record in parallel on up to workers
// goroutines (<=0 = GOMAXPROCS). reuse, when non-nil, is a record no longer
// in use: the new record records into its node buffers, and reuse must not
// be used again.
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
	free := make(chan *cache.SetAssoc, workers)
	for range workers {
		free <- cache.New(cfg)
	}
	r := &MissRecord{Cache: cfg, artifact: a, nodes: make([]engine.MissEvents, a.Procs)}
	if reuse != nil && len(reuse.nodes) >= a.Procs {
		copy(r.nodes, reuse.nodes)
	}
	err := par.ForEach(ctx, workers, a.Procs, func(p int) error {
		c := <-free
		defer func() { free <- c }()
		c.Reset()
		// A node records straight into reuse's buffer, growing it if it
		// must. Without one, a node among more than the workers records
		// into a pooled scratch buffer and keeps an exact copy, so that the
		// growth happens about once per worker; others grow their own.
		out, scratch := r.nodes[p][:0], (*engine.MissEvents)(nil)
		if cap(out) == 0 && a.Procs > workers {
			scratch = eventScratch.Get().(*engine.MissEvents)
			out = (*scratch)[:0]
		}
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
		r.nodes[p] = out
		if scratch != nil {
			r.nodes[p], *scratch = slices.Clone(out), out
			eventScratch.Put(scratch)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// eventScratch holds the buffers fresh records record into before keeping
// exact-size copies: recordings reuse them rather than regrow them.
var eventScratch = sync.Pool{New: func() any { return new(engine.MissEvents) }}

// SetMissRecord attaches a miss record: subsequent runs replay its events
// in place of probing each node's L1, with byte-identical results, and the
// machine allocates no L1 tag arrays. A run whose work does not use up a
// node's events exactly fails. The record must have been made from
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

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
//
// One pass records every geometry of a raster class (RecordMisses). It reads
// each node's work once, generates each item's footprints into scratch from
// the source triangle — the only recording path, so an artifact's stored
// footprints are never read and a spans-only artifact records as well — and
// probes the geometries smallest first along engine.Chains' inclusion
// chains, where a probe that leaves one cache still skips every larger one.
// On the 8 geometries of a perfbench sweep_dense class (4-way 1–128 KB,
// quake at scale 0.25 on 64 block-8 nodes, one worker) it takes about 0.28×
// the time of recording them one at a time (BenchmarkRecordMisses, 2-core
// Xeon, Go 1.24).
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/trace"
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

// RecordMisses records the L1 miss events of every node of artifact a on
// each cache geometry of cfgs, frame after frame, and returns one record per
// geometry, in cfgs' order: engine.MissEvents, an event for every probe
// that misses and one for each work item's end. frames are the frames a was
// built from. Each node's work is read once: every item's footprints are
// generated from its source triangle into scratch, as a spans-only
// artifact's replay generates them, and fed to every geometry, chain by
// chain (engine.Chains), so a's stored footprints, if any, are never read.
// Nodes record in parallel on up to workers goroutines (<=0 = GOMAXPROCS),
// each reusing its caches and buffers across its nodes; the records keep
// exact-size copies.
func RecordMisses(ctx context.Context, a *RasterArtifact, frames []*trace.Scene, cfgs []cache.Config, workers int) ([]*MissRecord, error) {
	if err := checkFrames(a, frames); err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	mgr, err := (&trace.Scene{Name: a.Scene, Textures: a.Textures}).BuildTextures()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, a.Procs)
	order, ends := engine.Chains(cfgs)
	free := make(chan *recordScratch, workers)
	for range workers {
		s := &recordScratch{outs: make([]engine.MissEvents, len(cfgs)), from: make([]int, len(cfgs))}
		for _, g := range order {
			s.caches = append(s.caches, cache.New(cfgs[g]))
		}
		free <- s
	}
	recs := make([]*MissRecord, len(cfgs))
	for g, cfg := range cfgs {
		recs[g] = &MissRecord{Cache: cfg, artifact: a, nodes: make([]engine.MissEvents, a.Procs)}
	}
	err = par.ForEach(ctx, workers, a.Procs, func(p int) error {
		s := <-free
		defer func() { free <- s }()
		for _, c := range s.caches {
			c.Reset()
		}
		for fi, f := range a.Frames {
			for k, ref := range f.perNode[p] {
				if k%ctxPollTriangles == 0 && k > 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				s.work.Addrs, s.work.Reps = s.work.Addrs[:0], s.work.Reps[:0]
				tw := triangleWork(mgr, &frames[fi].Triangles[ref.tri], f.Tris[ref.tri].Dests[ref.dest].Work.Segments)
				tw.Record(&s.work)
				lo := 0
				for _, hi := range ends {
					engine.RecordMisses(s.caches[lo:hi], &s.work, s.outs[lo:hi], s.from[lo:hi])
					lo = hi
				}
			}
		}
		for k, g := range order {
			recs[g].nodes[p], s.outs[k] = slices.Clone(s.outs[k]), s.outs[k][:0]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// recordScratch is one recording worker's caches and buffers, in chain
// order: the caches, each one's event stream for the node in hand, the
// streams' engine.RecordMisses counters, and the footprints of one work
// item.
type recordScratch struct {
	caches []*cache.SetAssoc
	outs   []engine.MissEvents
	from   []int
	work   engine.PrecomputedWork
}

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
		case m.cfg.HasL2() && !r.artifact.HasFootprints:
			return fmt.Errorf("core: miss record replay behind an L2 needs an artifact with footprints")
		}
	}
	m.misses = r
	m.engines = nil // rebuilt on the next run with the new L1 models
	return nil
}

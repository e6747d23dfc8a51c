// The sweep planner: rasterization depends only on (scene, resolution,
// distribution, processors, tile size), so sweep points that differ only in
// cache geometry, bus bandwidth or buffer depth share their raster work. The
// planner partitions a sweep's simulations — baselines included — into
// raster-equivalence classes keyed by Spec.RasterClassKey, rasterizes once
// per multi-member class into a core.RasterArtifact, and fans the artifact
// out to every member simulation. Replay is byte-identical to rasterizing
// (core's artifact contract), so memoization changes wall-clock only; the
// RunOpts.NoMemo escape hatch exists for benchmarking and distrust, never
// for correctness.
//
// The cache probe memoizes one level further down. A node's L1 hit/miss
// sequence depends only on its footprint stream and the cache geometry, so
// inside a memoized real-cache class the planner keys sub-classes by L1
// geometry, records each multi-member sub-class's L1 misses once into a
// core.MissRecord, and replays them into every member, whatever its bus or
// buffer depth. NoMemo turns this off with the rest.
package sweep

import (
	"context"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/trace"
)

// PlanStats reports what the planner did with one sweep. texsweep prints
// them as a stderr stat line and embeds them in -json output; they are NOT
// part of RunWith's Result (plan shape depends on RunOpts.NoMemo, which is
// outside the spec's cache identity, so cacheable result documents must not
// carry it).
type PlanStats struct {
	// Points is the number of sweep points (rows).
	Points int `json:"points"`
	// Baselines is the number of one-processor speedup baselines (one per
	// distinct cache/bus/buffer combination).
	Baselines int `json:"baselines"`
	// Classes is the number of raster-equivalence classes across points and
	// baselines.
	Classes int `json:"classes"`
	// Rasterizations is how many times a frame was actually rasterized: one
	// per memoized class, one per member everywhere else.
	Rasterizations int `json:"rasterizations"`
	// Saved is Points+Baselines-Rasterizations. Checkpoint-restored work
	// counts toward it: a restored simulation is a rasterization avoided.
	Saved int `json:"saved"`
	// Checkpointed is how many simulations (rows plus speedup baselines)
	// were restored from the checkpoint store (RunOpts.Rows) instead of
	// running. Always 0 without a store.
	Checkpointed int `json:"checkpointed"`
	// Memoized reports whether memoization was enabled for the run.
	Memoized bool `json:"memoized"`
	// MissRecords is how many cache-geometry sub-classes of memoized
	// classes had their L1 misses recorded once and replayed into
	// every member, instead of each member probing its own caches.
	MissRecords int `json:"miss_records"`
}

// classState is one raster-equivalence class: its identity, whether it is
// worth memoizing, and the lazily built shared artifact. The mutex guards
// build-once, the member refcount and the spare record; members acquire
// before simulating and release after, so the artifact is dropped as soon as
// its last member is done.
type classState struct {
	procs, size int
	// spansOnly is true when every member is a pure-scan machine (perfect
	// cache, infinite bus), which never consults texel addresses — the
	// artifact then skips footprint generation entirely.
	spansOnly bool
	// memoized is decided once membership is complete (seal): only classes
	// with at least two members pay for an artifact.
	memoized bool
	// geoms holds the class's real-cache members by L1 geometry.
	geoms map[cache.Config]*missState

	mu        sync.Mutex
	remaining int
	built     bool
	art       *core.RasterArtifact
	err       error
	// spare is a released miss record whose buffers the class's next
	// recording takes over.
	spare *core.MissRecord
}

// acquire returns the class artifact, building it on first use. Concurrent
// members block until the build completes; a build failure is remembered and
// returned to every member.
func (cs *classState) acquire(ctx context.Context, sc *trace.Scene, dk distrib.Kind, workers int) (*core.RasterArtifact, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.built {
		cs.art, cs.err = core.BuildRasterArtifact(ctx, []*trace.Scene{sc}, cs.procs, dk,
			cs.size, core.ArtifactOpts{Workers: workers, SpansOnly: cs.spansOnly})
		cs.built = true
	}
	return cs.art, cs.err
}

// release drops one member's reference; the last release frees the artifact
// and any spare miss record.
func (cs *classState) release() {
	cs.mu.Lock()
	cs.remaining--
	if cs.remaining == 0 {
		cs.art, cs.spare = nil, nil
	}
	cs.mu.Unlock()
}

// missState is one cache-geometry sub-class of a class: its members share
// one lazily recorded miss record, refcounted like the class artifact.
type missState struct {
	cfg cache.Config
	// recorded is decided at seal: the class memoizes and the sub-class
	// has at least two members.
	recorded bool

	mu        sync.Mutex
	remaining int
	built     bool
	rec       *core.MissRecord
	err       error
}

// acquire returns the sub-class's miss record for art, recording it on
// first use on workers goroutines into the class's spare buffer, if any.
func (ms *missState) acquire(ctx context.Context, cs *classState, art *core.RasterArtifact, workers int) (*core.MissRecord, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.built {
		cs.mu.Lock()
		spare := cs.spare
		cs.spare = nil
		cs.mu.Unlock()
		ms.rec, ms.err = core.RecordMisses(ctx, art, ms.cfg, workers, spare)
		ms.built = true
	}
	return ms.rec, ms.err
}

// release drops one member's reference; the last release hands the record
// to the class as its spare. Members release the record before the class.
func (ms *missState) release(cs *classState) {
	ms.mu.Lock()
	ms.remaining--
	if ms.remaining == 0 && ms.rec != nil {
		cs.mu.Lock()
		cs.spare = ms.rec
		cs.mu.Unlock()
		ms.rec = nil
	}
	ms.mu.Unlock()
}

// plan is the class partition of one sweep. Classes are kept in first-seen
// order so every derived output is deterministic.
type plan struct {
	byKey map[string]*classState
	order []*classState
	memo  bool
	stats PlanStats
}

func newPlan(memo bool) *plan {
	return &plan{byKey: make(map[string]*classState), memo: memo}
}

// add registers one simulation (a sweep point or a baseline) with the class
// it belongs to and returns that class and, for a real cache of geometry g,
// its geometry sub-class. ck and bus narrow the class's spans-only
// eligibility: one member that consults addresses forces full footprints
// for the whole class.
func (p *plan) add(spec Spec, procs, size int, ck core.CacheKind, g cache.Config, bus float64) (*classState, *missState) {
	key := spec.RasterClassKey(procs, size)
	cs := p.byKey[key]
	if cs == nil {
		cs = &classState{procs: procs, size: size, spansOnly: true, geoms: make(map[cache.Config]*missState)}
		p.byKey[key] = cs
		p.order = append(p.order, cs)
	}
	cs.remaining++
	if ck != core.CachePerfect || bus != 0 {
		cs.spansOnly = false
	}
	if ck != core.CacheReal {
		return cs, nil
	}
	ms := cs.geoms[g]
	if ms == nil {
		ms = &missState{cfg: g}
		cs.geoms[g] = ms
	}
	ms.remaining++
	return cs, ms
}

// seal closes membership: decides which classes memoize and fills the
// statistics. Must be called before any member simulates.
func (p *plan) seal(points, baselines int) {
	p.stats = PlanStats{Points: points, Baselines: baselines, Memoized: p.memo}
	for _, cs := range p.order {
		cs.memoized = p.memo && cs.remaining >= 2
		p.stats.Classes++
		if cs.memoized {
			p.stats.Rasterizations++
		} else {
			p.stats.Rasterizations += cs.remaining
		}
		for _, ms := range cs.geoms {
			ms.recorded = cs.memoized && ms.remaining >= 2
			if ms.recorded {
				p.stats.MissRecords++
			}
		}
	}
	p.stats.Saved = points + baselines - p.stats.Rasterizations
}

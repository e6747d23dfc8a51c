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
// a memoized real-cache class records the L1 misses of every geometry its
// members use — one member or many — into core.MissRecords, in one pass at
// the first member's request, and replays each into every member of that
// geometry, whatever its bus or buffer depth. The pass costs less than the
// live probe a lone member would make. The recording generates its own
// footprints and a replaying member reads none, so such a class builds a
// spans-only artifact: only members that read texel addresses from the
// artifact (a perfect cache behind a finite bus, a cacheless node) make a
// class build footprint streams. NoMemo turns all of this off.
package sweep

import (
	"context"
	"slices"
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
	// MissRecords is how many L1 geometries of memoized real-cache classes
	// had their misses recorded and replayed into every member of that
	// geometry, instead of each member probing its own caches: every
	// geometry of such a class, one member or many, in one pass per class.
	MissRecords int `json:"miss_records"`
}

// classState is one raster-equivalence class: its identity, whether it is
// worth memoizing, and the lazily built shared artifact and miss records.
// The mutex guards build-once, record-once and the member refcount; members
// acquire before simulating and release after, so the artifact and records
// are dropped as soon as the last member is done.
type classState struct {
	procs, size int
	// spansOnly is true when no member reads texel addresses from the
	// artifact: every member is a pure-scan machine (perfect cache,
	// infinite bus) or a real-cache one, which replays a miss record —
	// the artifact then skips footprint generation entirely.
	spansOnly bool
	// memoized is decided once membership is complete (seal): only classes
	// with at least two members pay for an artifact.
	memoized bool
	// geoms holds the L1 geometries of the class's real-cache members, in
	// first-seen order.
	geoms []cache.Config

	mu        sync.Mutex
	remaining int
	built     bool
	art       *core.RasterArtifact
	err       error
	recorded  bool
	recs      []*core.MissRecord // parallel to geoms
	recErr    error
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

// record returns the miss record of geometry g for the class artifact,
// which the caller has acquired. The first call records every geometry of
// the class in one pass on workers goroutines; like a build, it blocks
// concurrent members, and a failure is returned to every member.
func (cs *classState) record(ctx context.Context, sc *trace.Scene, g cache.Config, workers int) (*core.MissRecord, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !cs.recorded {
		cs.recs, cs.recErr = core.RecordMisses(ctx, cs.art, []*trace.Scene{sc}, cs.geoms, workers)
		cs.recorded = true
	}
	if cs.recErr != nil {
		return nil, cs.recErr
	}
	return cs.recs[slices.Index(cs.geoms, g)], nil
}

// release drops one member's reference; the last release frees the artifact
// and the miss records.
func (cs *classState) release() {
	cs.mu.Lock()
	cs.remaining--
	if cs.remaining == 0 {
		cs.art, cs.recs = nil, nil
	}
	cs.mu.Unlock()
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
// it belongs to and returns that class; a real-cache member registers its L1
// geometry g. ck and bus narrow the class's spans-only eligibility: one
// member that reads addresses from the artifact (a perfect cache behind a
// finite bus, or a cacheless node) forces full footprints for the whole
// class.
func (p *plan) add(spec Spec, procs, size int, ck core.CacheKind, g cache.Config, bus float64) *classState {
	key := spec.RasterClassKey(procs, size)
	cs := p.byKey[key]
	if cs == nil {
		cs = &classState{procs: procs, size: size, spansOnly: true}
		p.byKey[key] = cs
		p.order = append(p.order, cs)
	}
	cs.remaining++
	switch {
	case ck == core.CacheReal:
		if !slices.Contains(cs.geoms, g) {
			cs.geoms = append(cs.geoms, g)
		}
	case ck != core.CachePerfect || bus != 0:
		cs.spansOnly = false
	}
	return cs
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
			p.stats.MissRecords += len(cs.geoms)
		} else {
			p.stats.Rasterizations += cs.remaining
		}
	}
	p.stats.Saved = points + baselines - p.stats.Rasterizations
}

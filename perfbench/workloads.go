package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// opSample is one finished op of a closed loop.
type opSample struct {
	latency time.Duration
	frags   uint64 // simulated fragments, speedup baselines included
	err     error
}

// loopResult is what one closed-loop run produced.
type loopResult struct {
	ops    []opSample      // the ops op_p50_ms is taken over
	hits   []time.Duration // service only: result-cache-hit jobs
	window time.Duration
}

// workload is one benchmark workload. setup is timed (it is repeated and
// its median reported as setup_s); run is the timed closed loop; check
// verifies the outputs of the last run outside the timed window.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, budget time.Duration, rec *recorder) loopResult
	// check returns one message per mismatch. digests holds the recorded
	// digests when the run is at the default seed and nil otherwise;
	// record, when non-nil, receives the digests the run produced.
	check(ctx context.Context, digests map[string]string, record map[string]string) []string
	walkInput() walkInput
	close()
}

var workloadNames = []string{"frame", "sweep_paper", "sweep_dense", "service"}

func newWorkload(name string, seed uint64, parallelism int) (workload, error) {
	switch name {
	case "frame":
		return &frameBench{seed: seed, ops: frameOps()}, nil
	case "sweep_paper":
		return &sweepBench{name: name, seed: seed, specs: sweepPaperSpecs(), par: parallelism}, nil
	case "sweep_dense":
		return &sweepBench{name: name, seed: seed, specs: sweepDenseSpecs(), par: parallelism, dense: true}, nil
	case "service":
		return &serviceBench{seed: seed, pool: servicePool(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// roundLoop is the closed loop of the single-caller workloads: each round
// issues every op index once in seeded order, and a new round starts only
// if the previous round's duration still fits in the budget (at least one
// round always runs). Every run therefore holds each op equally often, so
// its median does not depend on where the budget cut a round.
func roundLoop(ctx context.Context, budget time.Duration, rng *rand.Rand, n int, op func(i int) opSample) loopResult {
	start := time.Now()
	var out loopResult
	var last time.Duration
	for round := 0; round == 0 || (time.Since(start)+last <= budget && ctx.Err() == nil); round++ {
		r0 := time.Now()
		for _, i := range rng.Perm(n) {
			out.ops = append(out.ops, op(i))
		}
		last = time.Since(r0)
	}
	out.window = time.Since(start)
	return out
}

// digestOf is the hex sha256 of canonical result bytes.
func digestOf(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// compareDigests checks the digests a run produced against the recorded
// ones. Every produced label that was recorded must match; complete
// additionally requires every recorded label to have been produced.
func compareDigests(recorded, got map[string]string, complete bool) []string {
	if len(recorded) == 0 {
		return []string{"no recorded digests for this workload"}
	}
	var bad []string
	compared := 0
	for label, d := range got {
		want, ok := recorded[label]
		if !ok {
			continue
		}
		compared++
		if want != d {
			bad = append(bad, fmt.Sprintf("%s: result digest %s, recorded %s", label, d[:16], want[:16]))
		}
	}
	if complete {
		for label := range recorded {
			if _, ok := got[label]; !ok {
				bad = append(bad, fmt.Sprintf("%s: recorded but not produced", label))
			}
		}
	}
	if compared == 0 {
		bad = append(bad, "no produced result has a recorded digest")
	}
	return bad
}

// frameBench is the frame workload: each op builds a machine and runs one
// cold frame on the default decoupled kernel.
type frameBench struct {
	seed    uint64
	ops     []frameOp
	scenes  map[string]*trace.Scene
	results [][]*core.Result // per op index, every run of it
	nextOp  int
}

func (b *frameBench) setup(ctx context.Context) error {
	b.scenes = make(map[string]*trace.Scene)
	for _, name := range scene.Names() {
		bm, err := scene.ByName(name, frameScale)
		if err != nil {
			return err
		}
		sc, err := bm.Build()
		if err != nil {
			return err
		}
		b.scenes[name] = sc
	}
	return nil
}

func (b *frameBench) run(ctx context.Context, budget time.Duration, rec *recorder) loopResult {
	b.results = make([][]*core.Result, len(b.ops))
	return roundLoop(ctx, budget, newRNG(b.seed, "frame/order"), len(b.ops), func(i int) opSample {
		b.nextOp++
		id, op := b.nextOp, b.ops[i]
		root := rec.start("frame.op", 0, id)
		defer rec.end(root)
		t0 := time.Now()
		var m *core.Machine
		var res *core.Result
		var err error
		rec.timed("core.NewMachine", root, id, func() { m, err = core.NewMachine(b.scenes[op.Scene], op.config()) })
		if err == nil {
			rec.timed("core.Machine.Run", root, id, func() { res, err = m.RunContext(ctx) })
		}
		if err != nil {
			return opSample{err: fmt.Errorf("%s: %w", op.label(), err)}
		}
		lat := time.Since(t0)
		b.results[i] = append(b.results[i], res)
		return opSample{latency: lat, frags: res.Fragments}
	})
}

func (b *frameBench) check(ctx context.Context, digests, record map[string]string) []string {
	var bad []string
	got := make(map[string]string)
	for i, rs := range b.results {
		if len(rs) == 0 {
			continue
		}
		op := b.ops[i]
		st, err := trace.Measure(b.scenes[op.Scene])
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: measure: %v", op.label(), err))
			continue
		}
		first, err := json.Marshal(rs[0])
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: encode: %v", op.label(), err))
			continue
		}
		for _, r := range rs {
			if r.Fragments != st.PixelsRendered {
				bad = append(bad, fmt.Sprintf("%s: %d fragments, trace.Measure counts %d pixels",
					op.label(), r.Fragments, st.PixelsRendered))
			}
			if data, _ := json.Marshal(r); !bytes.Equal(data, first) {
				bad = append(bad, fmt.Sprintf("%s: repeated frame produced different result bytes", op.label()))
			}
		}
		got[op.label()] = digestOf(first)
	}
	if digests != nil {
		bad = append(bad, compareDigests(digests, got, true)...)
	}
	if record != nil {
		maps.Copy(record, got)
	}
	return bad
}

func (b *frameBench) walkInput() walkInput {
	op := b.ops[newRNG(b.seed, "frame/order").Perm(len(b.ops))[0]]
	spec := sweep.Spec{Scene: op.Scene, Scale: frameScale, Dist: distName(op.Dist),
		Procs: []int{1, frameProcs}, Sizes: []int{frameTile}, Bus: 1, Cache: "real"}
	return walkInput{scene: op.Scene, scale: frameScale, cfg: op.config(),
		geoms: []cache.Config{cache.PaperConfig()}, sweep: spec, service: []sweep.Spec{spec},
		dense: sweepDenseSpecs()[0]}
}

func (b *frameBench) close() {}

// distName and distKind convert between a distribution kind and its
// sweep-spec spelling, for the two kinds the workloads use.
func distName(k distrib.Kind) string {
	if k == distrib.SLIKind {
		return "sli"
	}
	return "block"
}

func distKind(name string) distrib.Kind {
	if name == "sli" {
		return distrib.SLIKind
	}
	return distrib.BlockKind
}

// sweepBench is the sweep_paper and sweep_dense workloads: each op is one
// sweep.RunWith of one spec.
type sweepBench struct {
	name    string
	seed    uint64
	specs   []sweep.Spec
	par     int
	dense   bool
	results [][]*sweep.Result
	plans   [][]sweep.PlanStats
	nextOp  int
}

func (b *sweepBench) setup(ctx context.Context) error {
	for _, s := range b.specs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s: %w", specLabel(s), err)
		}
		bm, err := scene.ByName(s.Scene, s.Scale)
		if err != nil {
			return err
		}
		if _, err := bm.Build(); err != nil {
			return err
		}
	}
	return nil
}

// simulatedFrags counts the fragments a sweep simulated: every row plus
// every speedup baseline, each of which renders the whole scene.
func simulatedFrags(res *sweep.Result, baselines int) uint64 {
	var n uint64
	for _, r := range res.Rows {
		n += r.Frags
	}
	if len(res.Rows) > 0 {
		n += uint64(baselines) * res.Rows[0].Frags
	}
	return n
}

func (b *sweepBench) run(ctx context.Context, budget time.Duration, rec *recorder) loopResult {
	b.results = make([][]*sweep.Result, len(b.specs))
	b.plans = make([][]sweep.PlanStats, len(b.specs))
	return roundLoop(ctx, budget, newRNG(b.seed, b.name+"/order"), len(b.specs), func(i int) opSample {
		b.nextOp++
		id, spec := b.nextOp, b.specs[i]
		root := rec.start(b.name+".op", 0, id)
		defer rec.end(root)
		var ps sweep.PlanStats
		var res *sweep.Result
		var err error
		lat := rec.timed("sweep.RunWith", root, id, func() {
			res, err = sweep.RunWith(ctx, spec, sweep.RunOpts{Parallelism: b.par, Plan: &ps})
		})
		if err != nil {
			return opSample{err: fmt.Errorf("%s: %w", specLabel(spec), err)}
		}
		b.results[i] = append(b.results[i], res)
		b.plans[i] = append(b.plans[i], ps)
		return opSample{latency: lat, frags: simulatedFrags(res, ps.Baselines)}
	})
}

func (b *sweepBench) check(ctx context.Context, digests, record map[string]string) []string {
	var bad []string
	got := make(map[string]string)
	for i, rs := range b.results {
		if len(rs) == 0 {
			continue
		}
		label := specLabel(b.specs[i])
		first, err := json.Marshal(rs[0])
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: encode: %v", label, err))
			continue
		}
		for j, r := range rs {
			if data, _ := json.Marshal(r); !bytes.Equal(data, first) {
				bad = append(bad, fmt.Sprintf("%s: repeated sweep produced different rows", label))
			}
			if ps := b.plans[i][j]; b.dense && (ps.Classes != 2 || ps.Rasterizations != 2) {
				bad = append(bad, fmt.Sprintf("%s: %d classes and %d rasterizations, want 2 and 2",
					label, ps.Classes, ps.Rasterizations))
			}
		}
		got[label] = digestOf(first)
	}
	if digests != nil {
		bad = append(bad, compareDigests(digests, got, true)...)
	}
	if record != nil {
		maps.Copy(record, got)
	}
	return bad
}

func (b *sweepBench) walkInput() walkInput {
	spec := b.specs[newRNG(b.seed, b.name+"/order").Perm(len(b.specs))[0]]
	// The walk's frame is the sweep's (16, 16) point, or for sweep_dense its
	// single (64, 8) point at the paper cache and a 1 texel/pixel bus.
	cfg := core.Config{Procs: 16, Distribution: distKind(spec.Dist), TileSize: 16, CacheKind: core.CacheReal,
		CacheConfig: cache.PaperConfig(), Bus: memory.BusConfig{TexelsPerCycle: 1}}
	geoms := []cache.Config{cache.PaperConfig()}
	if b.dense {
		cfg.Procs, cfg.TileSize = spec.Procs[0], spec.Sizes[0]
		geoms = nil
		for _, kb := range spec.Caches {
			geoms = append(geoms, cache.Config{SizeBytes: kb * 1024, Ways: 4, LineBytes: cache.PaperConfig().LineBytes})
		}
	}
	dense := sweepDenseSpecs()[0]
	if b.dense {
		dense = spec
	}
	return walkInput{scene: spec.Scene, scale: spec.Scale, cfg: cfg, geoms: geoms,
		sweep: spec, service: []sweep.Spec{spec}, dense: dense}
}

func (b *sweepBench) close() {}

// serviceBench is the service workload: two closed-loop HTTP clients
// against an in-process texsimd, alternating new specs (cold jobs) with
// repeats of their own earlier specs (result-cache hits).
type serviceBench struct {
	seed     uint64
	pool     [serviceClients][]sweep.Spec
	s        *svc
	outcomes [serviceClients][]jobOutcome
	nextOp   int
	opMu     sync.Mutex
}

func (b *serviceBench) setup(ctx context.Context) error {
	for _, name := range scene.Names() {
		bm, err := scene.ByName(name, b.pool[0][0].Scale)
		if err != nil {
			return err
		}
		if _, err := bm.Build(); err != nil {
			return err
		}
	}
	s, err := startService(ctx)
	if err != nil {
		return err
	}
	b.s = s
	return nil
}

func (b *serviceBench) opID() int {
	b.opMu.Lock()
	defer b.opMu.Unlock()
	b.nextOp++
	return b.nextOp
}

func (b *serviceBench) run(ctx context.Context, budget time.Duration, rec *recorder) loopResult {
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.outcomes[c] = b.client(ctx, c, deadline, rec)
		}(c)
	}
	wg.Wait()
	out := loopResult{window: time.Since(start)}
	for _, outs := range b.outcomes {
		for _, o := range outs {
			switch {
			case o.err != nil:
				out.ops = append(out.ops, opSample{err: o.err})
			case !o.repeat:
				var res sweep.Result
				if err := json.Unmarshal(o.body, &res); err != nil {
					out.ops = append(out.ops, opSample{err: err})
					continue
				}
				out.ops = append(out.ops, opSample{latency: o.latency, frags: simulatedFrags(&res, 1)})
			default:
				out.hits = append(out.hits, o.latency)
			}
		}
	}
	return out
}

// client is one closed-loop client: even jobs take its next new spec, odd
// jobs repeat a seeded pick among the specs it has already completed.
func (b *serviceBench) client(ctx context.Context, c int, deadline time.Time, rec *recorder) []jobOutcome {
	rng := newRNG(b.seed, fmt.Sprintf("service/client%d", c))
	var out []jobOutcome
	var done []sweep.Spec
	next := 0
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		repeat := k%2 == 1 && len(done) > 0
		var spec sweep.Spec
		if repeat {
			spec = done[rng.IntN(len(done))]
		} else {
			if next == len(b.pool[c]) {
				break
			}
			spec = b.pool[c][next]
			next++
		}
		o := b.s.job(ctx, spec, repeat, rec, b.opID())
		out = append(out, o)
		if !repeat && o.err == nil {
			done = append(done, spec)
		}
	}
	return out
}

// serviceDigestsPerClient is how many leading new specs of each client
// have recorded digests.
const serviceDigestsPerClient = 16

func (b *serviceBench) check(ctx context.Context, digests, record map[string]string) []string {
	var bad []string
	cold := make(map[string][]byte)
	var colds []jobOutcome
	got := make(map[string]string)
	for _, outs := range b.outcomes {
		n := 0
		for _, o := range outs {
			if o.err != nil || o.repeat {
				continue
			}
			label := specLabel(o.spec)
			if o.fromCache {
				bad = append(bad, label+": new spec was served from the result cache")
			}
			cold[label] = o.body
			colds = append(colds, o)
			if n < serviceDigestsPerClient {
				got[label] = digestOf(o.body)
			}
			n++
		}
	}
	for _, outs := range b.outcomes {
		for _, o := range outs {
			if o.err != nil || !o.repeat {
				continue
			}
			label := specLabel(o.spec)
			if !o.fromCache {
				bad = append(bad, label+": repeated spec was not served from the result cache")
			}
			if !bytes.Equal(o.body, cold[label]) {
				bad = append(bad, label+": cached result differs from the simulated one")
			}
		}
	}
	// Every service result must equal an in-process sweep of the same spec.
	var mu sync.Mutex
	err := par.ForEach(ctx, serviceWorkers, len(colds), func(i int) error {
		res, err := sweep.RunWith(ctx, colds[i].spec, sweep.RunOpts{Parallelism: 1})
		if err != nil {
			return err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, colds[i].body) {
			mu.Lock()
			bad = append(bad, specLabel(colds[i].spec)+": service result differs from in-process sweep.RunWith")
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		bad = append(bad, "in-process reference sweep: "+err.Error())
	}
	if digests != nil {
		bad = append(bad, compareDigests(digests, got, false)...)
	}
	if record != nil {
		maps.Copy(record, got)
	}
	return bad
}

func (b *serviceBench) walkInput() walkInput {
	spec := b.pool[0][0]
	cfg := core.Config{Procs: spec.Procs[0], Distribution: distKind(spec.Dist), TileSize: spec.Sizes[0],
		CacheKind: core.CacheReal, CacheConfig: cache.PaperConfig(),
		Bus: memory.BusConfig{TexelsPerCycle: spec.Bus}}
	return walkInput{scene: spec.Scene, scale: spec.Scale, cfg: cfg,
		geoms: []cache.Config{cache.PaperConfig()}, sweep: withBaselinePoint(spec),
		dense: sweepDenseSpecs()[0]}
}

func (b *serviceBench) close() {
	if b.s != nil {
		b.s.close()
		b.s = nil
	}
}

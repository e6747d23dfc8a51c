package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/resultcache"
	"repro/internal/scene"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The layer walk of the traced run: it calls each layer's public functions
// on the workload's own seeded inputs, one layer at a time, inside spans,
// and derives the per-layer metrics from those spans and from the counts
// taken at the same boundaries.

// walkInput is a workload's representative inputs for the layer walk.
type walkInput struct {
	scene string
	scale float64
	// cfg is the frame the core, engine and memory layers are timed on.
	cfg core.Config
	// geoms are the cache geometries the probe is driven with.
	geoms []cache.Config
	// sweep is timed through sweep.RunWith with a progress sink.
	sweep sweep.Spec
	// dense is the sweep_dense spec whose memoized and unmemoized runs give
	// sweep.memo_speedup.
	dense sweep.Spec
	// service holds the specs sent through a fresh in-process texsimd, each
	// once new and once repeated; nil when the workload's own traced loop
	// already drove the service.
	service []sweep.Spec
}

// walkReps is how many times each timed call of the walk is repeated; its
// median is reported.
const walkReps = 3

// eventBuffer is the §8 small triangle buffer that forces the event kernel.
const eventBuffer = 100

// layerWalk runs the walk and fills m with per-layer metrics. It returns
// correctness failures found on the way (kernels or memoization that
// disagree on result bytes).
func layerWalk(ctx context.Context, in walkInput, rec *recorder, m map[string]float64) ([]string, error) {
	root := rec.start("walk", 0, 0)
	defer rec.end(root)
	var bad []string

	// scene: synthesis.
	bm, err := scene.ByName(in.scene, in.scale)
	if err != nil {
		return nil, err
	}
	var sc *trace.Scene
	for i := 0; i < walkReps; i++ {
		rec.timed("scene.Build", root, 0, func() { sc, err = bm.Build() })
		if err != nil {
			return nil, err
		}
	}
	m["scene.build_ms"] = median(rec.durations("scene.Build"))

	// distrib: routing every triangle's bounding box.
	cfg := in.cfg
	d, err := distrib.New(cfg.Distribution, sc.Screen, cfg.Procs, cfg.TileSize)
	if err != nil {
		return nil, err
	}
	dst := make([]int, 0, cfg.Procs)
	dests := 0
	var routeNS []float64
	for i := 0; i < walkReps; i++ {
		dur := rec.timed("distrib.Route", root, 0, func() {
			for t := range sc.Triangles {
				dst = d.Route(sc.Triangles[t].BBox(), dst[:0])
				dests += len(dst)
			}
		})
		routeNS = append(routeNS, float64(dur.Nanoseconds())/float64(len(sc.Triangles)))
	}
	m["distrib.route_ns"] = median(routeNS)
	m["distrib.fanout"] = float64(dests) / float64(walkReps*len(sc.Triangles))

	// core + texture: the raster artifact, spans only and with footprints.
	frames := []*trace.Scene{sc}
	var full *core.RasterArtifact
	for i := 0; i < walkReps; i++ {
		rec.timed("core.BuildRasterArtifact.spans", root, 0, func() {
			_, err = core.BuildRasterArtifact(ctx, frames, cfg.Procs, cfg.Distribution, cfg.TileSize, core.ArtifactOpts{SpansOnly: true})
		})
		if err != nil {
			return nil, err
		}
		full = nil // let the previous artifact go before building the next
		rec.timed("core.BuildRasterArtifact.full", root, 0, func() {
			full, err = core.BuildRasterArtifact(ctx, frames, cfg.Procs, cfg.Distribution, cfg.TileSize, core.ArtifactOpts{})
		})
		if err != nil {
			return nil, err
		}
	}
	spansMS := median(rec.durations("core.BuildRasterArtifact.spans"))
	m["core.artifact_spans_ms"] = spansMS
	m["texture.footprint_ms"] = median(rec.durations("core.BuildRasterArtifact.full")) - spansMS
	runs, frags := footprintRuns(full)
	m["texture.footprint_runs"] = float64(runs)
	m["texture.frags_per_run"] = float64(frags) / float64(runs)

	// cache: SetAssoc.Access over each node's own address stream.
	var probes, misses uint64
	probeMS := 0.0
	for _, g := range in.geoms {
		var p, mi uint64
		var durs []float64
		for i := 0; i < walkReps; i++ {
			durs = append(durs, ms(rec.timed("cache.SetAssoc.Access", root, 0, func() { p, mi = probeStreams(full, g) })))
		}
		probes += p
		misses += mi
		probeMS += median(durs)
	}
	m["cache.probe_ns"] = probeMS * 1e6 / float64(probes)
	m["cache.probes"] = float64(probes)
	m["cache.hit_ratio"] = 1 - float64(misses)/float64(probes)

	// core + engine + memory: one frame on each kernel. The ratios are taken
	// on one core (GOMAXPROCS 1) so that they compare algorithms rather
	// than the host's core count: node parallelism 2 selects the decoupled
	// kernel, 1 the event kernel. The calls are interleaved, so drift in
	// host speed hits every side alike; the probe of the frame's own cache
	// geometry runs beside replay because engine.replay_other_ms subtracts
	// it.
	runOnce := func(name string, c core.Config, nodePar int, art *core.RasterArtifact) (*core.Result, error) {
		mach, err := core.NewMachine(sc, c)
		if err != nil {
			return nil, err
		}
		mach.SetNodeParallelism(nodePar)
		if err := mach.SetRasterArtifact(art); err != nil {
			return nil, err
		}
		var res *core.Result
		rec.timed(name, root, 0, func() { res, err = mach.RunContext(ctx) })
		return res, err
	}
	small := cfg
	small.TriangleBuffer = eventBuffer
	var replay, dec1, evt1, dflt *core.Result
	var errs [5]error
	for i := 0; i < walkReps; i++ {
		prev := runtime.GOMAXPROCS(1)
		rec.timed("cache.SetAssoc.Access.replay_geometry", root, 0, func() { probeStreams(full, cfg.CacheConfig) })
		replay, errs[0] = runOnce("core.Machine.Run.replay_1core", cfg, 2, full)
		dec1, errs[1] = runOnce("core.Machine.Run.decoupled_1core", cfg, 2, nil)
		evt1, errs[2] = runOnce("core.Machine.Run.event_1core", cfg, 1, nil)
		runtime.GOMAXPROCS(prev)
		dflt, errs[3] = runOnce("core.Machine.Run.decoupled", cfg, 0, nil)
		_, errs[4] = runOnce("core.Machine.Run.event_small_buffer", small, 0, nil)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	full = nil
	want, _ := json.Marshal(dflt)
	for name, r := range map[string]*core.Result{"replay": replay, "decoupled (1 core)": dec1, "event": evt1} {
		if got, _ := json.Marshal(r); !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("walk %s: %s frame differs from the default kernel", in.scene, name))
		}
	}
	replayMS := median(rec.durations("core.Machine.Run.replay_1core"))
	dec1MS := median(rec.durations("core.Machine.Run.decoupled_1core"))
	m["core.replay_ms"] = replayMS
	m["engine.replay_other_ms"] = replayMS - median(rec.durations("cache.SetAssoc.Access.replay_geometry"))
	m["core.replay_over_simulate"] = replayMS / dec1MS
	m["core.decoupled_over_event"] = dec1MS / median(rec.durations("core.Machine.Run.event_1core"))
	m["core.frame_decoupled_ms"] = median(rec.durations("core.Machine.Run.decoupled"))
	m["core.frame_event_ms"] = median(rec.durations("core.Machine.Run.event_small_buffer"))
	var stall float64
	for _, n := range dflt.Nodes {
		stall += n.StallCycles
	}
	m["engine.stall_cycles"] = stall
	m["memory.texel_per_frag"] = dflt.TexelToFragment()
	m["core.cycles"] = dflt.Cycles

	// sweep: the workload's sweep with a progress sink attached.
	sink := &rowSink{rec: rec, parent: root, open: make(map[int]int)}
	var ps sweep.PlanStats
	var res *sweep.Result
	sweepDur := rec.timed("sweep.RunWith", root, 0, func() {
		res, err = sweep.RunWith(ctx, in.sweep, sweep.RunOpts{Parallelism: 2, Plan: &ps, Progress: sink})
	})
	if err != nil {
		return nil, err
	}
	rows := rec.durations("sweep.row")
	m["sweep.classes"] = float64(ps.Classes)
	m["sweep.rasterizations"] = float64(ps.Rasterizations)
	m["sweep.saved_ratio"] = float64(ps.Saved) / float64(ps.Points+ps.Baselines)
	m["sweep.row_ms"] = median(rows)
	m["sweep.rows_in_flight"] = sum(rows) / ms(sweepDur)

	// sweep: memoization alone. Both sides run configurations one at a time
	// on the decoupled kernel (node parallelism 2), so the ratio isolates
	// the planner; at Parallelism 2 the unmemoized points would also fall
	// back to the event kernel.
	var memoRows, plainRows []byte
	for i := 0; i < 2; i++ {
		for _, noMemo := range []bool{false, true} {
			name := "sweep.RunWith.memo"
			if noMemo {
				name = "sweep.RunWith.nomemo"
			}
			var r *sweep.Result
			rec.timed(name, root, 0, func() {
				r, err = sweep.RunWith(ctx, in.dense, sweep.RunOpts{Parallelism: 1, NodeParallelism: 2, NoMemo: noMemo})
			})
			if err != nil {
				return nil, err
			}
			data, _ := json.Marshal(r)
			if noMemo {
				plainRows = data
			} else {
				memoRows = data
			}
		}
	}
	if !bytes.Equal(memoRows, plainRows) {
		bad = append(bad, "walk: memoized and unmemoized sweep_dense rows differ")
	}
	m["sweep.memo_speedup"] = median(rec.durations("sweep.RunWith.nomemo")) / median(rec.durations("sweep.RunWith.memo"))

	// resultcache: Put and Get of the sweep's own result document.
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	rc, err := resultcache.New(resultcache.Config{})
	if err != nil {
		return nil, err
	}
	const cacheOps = 64
	keys := make([]string, cacheOps)
	for i := range keys {
		s := in.sweep
		s.Buffer = i + 1
		if keys[i], err = resultcache.Key(&service.Request{Type: "sweep", Sweep: &s}); err != nil {
			return nil, err
		}
	}
	var putUS, getUS []float64
	for _, k := range keys {
		putUS = append(putUS, 1000*ms(rec.timed("resultcache.Put", root, 0, func() { err = rc.Put(k, payload) })))
		if err != nil {
			return nil, err
		}
	}
	for _, k := range keys {
		var ok bool
		getUS = append(getUS, 1000*ms(rec.timed("resultcache.Get", root, 0, func() { _, ok = rc.Get(k) })))
		if !ok {
			bad = append(bad, "walk: result cache lost a fresh entry")
		}
	}
	m["resultcache.put_us"] = median(putUS)
	m["resultcache.get_us"] = median(getUS)

	// service: each spec once new and twice repeated through texsimd.
	if in.service != nil {
		s, err := startService(ctx)
		if err != nil {
			return nil, err
		}
		defer s.close()
		var outs []jobOutcome
		for i, spec := range in.service {
			for _, repeat := range []bool{false, true, true} {
				o := s.job(ctx, spec, repeat, rec, -(i + 1))
				if o.err != nil {
					return nil, o.err
				}
				outs = append(outs, o)
			}
		}
		if err := serviceMetrics(ctx, s, outs, m); err != nil {
			return nil, err
		}
	}
	return bad, nil
}

// serviceMetrics fills the service and result-cache metrics from a
// server's jobs and its /metrics histograms.
func serviceMetrics(ctx context.Context, s *svc, outs []jobOutcome, m map[string]float64) error {
	var submit, result, hit []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.submit))
		result = append(result, ms(o.result))
		if o.repeat {
			hit = append(hit, ms(o.latency))
		}
	}
	scraped, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	if m["service.queue_wait_ms"], err = histMeanMS(scraped, "texsimd_job_queue_wait_seconds"); err != nil {
		return err
	}
	if m["service.job_run_ms"], err = histMeanMS(scraped, "texsimd_job_duration_seconds"); err != nil {
		return err
	}
	m["service.submit_ms"] = median(submit)
	m["service.result_ms"] = median(result)
	m["service.hit_job_ms"] = median(hit)
	m["service.rejected"] = sumSeries(scraped, "texsimd_jobs_rejected_total")
	st := s.cache.Stats()
	m["resultcache.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	return nil
}

// footprintRuns counts an artifact's RLE footprint runs and the fragments
// they cover.
func footprintRuns(a *core.RasterArtifact) (runs, frags int) {
	for _, f := range a.Frames {
		for _, t := range f.Tris {
			for _, d := range t.Dests {
				runs += len(d.Work.Reps)
				for _, r := range d.Work.Reps {
					frags += int(r)
				}
			}
		}
	}
	return runs, frags
}

// probeStreams drives one cache per node, of geometry g, with that node's
// footprint stream in submission order: one 8-address lookup per RLE run,
// exactly the lookups replay makes (a run's repeated fragments are
// guaranteed hits that replay accounts without probing). It returns the
// lookups made and how many missed.
func probeStreams(a *core.RasterArtifact, g cache.Config) (probes, misses uint64) {
	caches := make([]*cache.SetAssoc, a.Procs)
	for i := range caches {
		caches[i] = cache.New(g)
	}
	for _, f := range a.Frames {
		for _, t := range f.Tris {
			for _, d := range t.Dests {
				c := caches[d.Node]
				for _, addr := range d.Work.Addrs {
					c.Access(addr)
				}
			}
		}
	}
	for _, c := range caches {
		st := c.Stats()
		probes += st.Accesses
		misses += st.Misses
	}
	return probes, misses
}

// rowSink is a sweep.ProgressSink that records one span per row.
type rowSink struct {
	rec    *recorder
	parent int
	mu     sync.Mutex
	open   map[int]int // row index → span ID
}

func (s *rowSink) RowStarted(index, total, procs, size int, configHash string) {
	id := s.rec.start("sweep.row", s.parent, 0)
	s.mu.Lock()
	s.open[index] = id
	s.mu.Unlock()
}

func (s *rowSink) RowDone(index, total int, row sweep.Row, configHash string) {
	s.mu.Lock()
	id := s.open[index]
	delete(s.open, index)
	s.mu.Unlock()
	s.rec.end(id)
}

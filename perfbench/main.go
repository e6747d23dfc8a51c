// Command perfbench is the repository's benchmark. It runs one seeded
// workload as a closed loop for a fixed time, checks the program's outputs
// outside the timed window, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the run is traced instead: it times the workload's ops
// untraced and traced (their difference is the tracing overhead), walks
// every layer's public functions inside spans, prints the per-layer
// metrics and writes the spans to a JSON file. Run it through run.sh,
// which builds it from the checkout:
//
//	sh perfbench/run.sh --workload frame --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed digests.json
var recordedDigests []byte

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 9

func main() { os.Exit(run()) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	name := flag.String("workload", "", "workload: frame, sweep_paper, sweep_dense or service")
	seed := flag.Uint64("seed", defaultSeed, "input seed (digests are checked at the default seed)")
	seconds := flag.Float64("seconds", 15, "measured closed-loop time per run")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	par := flag.Int("parallelism", 2, "sweep.RunOpts.Parallelism for the sweep workloads")
	spanFile := flag.String("spans", "", "span output file of a traced run (default .bench_build/spans/<workload>-seed<n>.json)")
	record := flag.String("record-digests", "", "write this run's result digests into the given digests.json (default seed only)")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *par < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1, --parallelism at least 1")
		return 2
	}
	if *record != "" && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: digests are recorded at the default seed %d only\n", defaultSeed)
		return 2
	}
	w, err := newWorkload(*name, *seed, *par)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var digests map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &digests); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: digests.json:", err)
		return 2
	}
	ctx := context.Background()
	printHost(*name, *seed)

	var setups []float64
	for k := 0; k < setupReps; k++ {
		w.close()
		runtime.GC() // each repetition starts from the same collected heap
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	budget := time.Duration(*seconds * float64(time.Second))

	// Recording replaces the workload's digests, so it does not compare
	// against the old ones; every other check still runs.
	var want, got map[string]string
	if *record != "" {
		got = make(map[string]string)
	} else if *seed == defaultSeed {
		want = digests[*name]
	}
	var rep report
	var bad []string
	if *traced == 1 {
		path := *spanFile
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		}
		rep, bad, err = tracedRun(ctx, w, budget, path, want)
	} else {
		rep, bad = measuredRun(ctx, w, budget, setups, want, got)
		if err == nil && *record != "" && len(bad) == 0 {
			err = writeDigests(*record, *name, got)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, b := range bad {
		fmt.Printf("# CHECK FAILED: %s\n", b)
	}
	rep.Correct = len(bad) == 0
	printMetrics(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measuredRun is the untraced run: the end-to-end metrics.
func measuredRun(ctx context.Context, w workload, budget time.Duration, setups []float64, want, got map[string]string) (report, []string) {
	runtime.GC()
	hw := startHeapWatch()
	a0 := allocBytes()
	lr := w.run(ctx, budget, nil)
	a1 := allocBytes()
	heap := hw.stop()
	bad := w.check(ctx, want, got)

	rep := report{Attempted: len(lr.ops) + len(lr.hits), Metrics: map[string]metric{}}
	var lat []float64
	var frags uint64
	for _, o := range lr.ops {
		if o.err != nil {
			rep.Failed++
			fmt.Printf("# op failed: %v\n", o.err)
			continue
		}
		lat = append(lat, ms(o.latency))
		frags += o.frags
	}
	if len(lat) == 0 {
		return rep, append(bad, "no op completed")
	}
	window := lr.window.Seconds()
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["op_p50_ms"] = metric{median(lat), "ms"}
	rep.Metrics["ops_per_s"] = metric{float64(len(lat)) / window, "1/s"}
	rep.Metrics["sim_frags_per_s"] = metric{float64(frags) / window, "frag/s"}
	rep.Metrics["alloc_mb_per_op"] = metric{float64(a1-a0) / 1e6 / float64(len(lat)), "MB"}
	// The peak is taken by the tail rule over GC cycles, so that one cycle
	// that happened to land on two concurrent allocation peaks does not set
	// it alone; the true maximum is printed below.
	peak, pct, ok := tail(heap)
	if !ok {
		peak, pct = maxOf(heap), 100
	}
	rep.Metrics["peak_heap_mb"] = metric{peak / 1e6, "MB"}

	// Figures not in BENCHMARK.json's end-to-end list, because not every
	// workload has them (see README.md), printed for the reader.
	fmt.Printf("# ops %d in %.2f s (closed loop)\n", len(lat), window)
	if len(lat) <= 64 {
		fmt.Printf("# op latencies ms, in issue order: %.0f\n", lat)
	}
	if v, pct, ok := tail(lat); ok {
		fmt.Printf("# op_tail_ms %.3f ms (p%.1f of %d ops)\n", v, pct, len(lat))
	} else {
		fmt.Printf("# op_tail_ms n/a (%d ops; a tail needs more than %d)\n", len(lat), tailSamples)
	}
	if len(lr.hits) > 0 {
		fmt.Printf("# hit_p50_ms %.3f ms (%d result-cache-hit jobs)\n", median(durMS(lr.hits)), len(lr.hits))
	}
	fmt.Printf("# peak_heap_mb is p%.1f of %d GC cycles' live heap; the largest cycle marked %.1f MB\n",
		pct, len(heap), maxOf(heap)/1e6)
	fmt.Printf("# error_rate %.4f (%d failed or refused of %d attempted)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	return rep, bad
}

// tracedRun is the traced run: the op loop untraced and then traced (the
// difference is the tracing overhead), the output checks of the traced
// loop, and the layer walk.
func tracedRun(ctx context.Context, w workload, budget time.Duration, spanPath string, want map[string]string) (report, []string, error) {
	rep := report{Metrics: map[string]metric{}}
	half := budget / 2
	plain := w.run(ctx, half, nil)
	w.close() // a fresh server, so the traced loop's new specs are new again
	if err := w.setup(ctx); err != nil {
		return rep, nil, err
	}
	rec := newRecorder()
	tracedLoop := w.run(ctx, half, rec)
	for _, lr := range []loopResult{plain, tracedLoop} {
		rep.Attempted += len(lr.ops) + len(lr.hits)
		for _, o := range lr.ops {
			if o.err != nil {
				rep.Failed++
				fmt.Printf("# op failed: %v\n", o.err)
			}
		}
	}
	m := make(map[string]float64)
	in := w.walkInput()
	fmt.Printf("# layer walk on %s at scale %g, %s\n", in.scene, in.scale, in.cfg.Name())
	if in.service == nil {
		sb := w.(*serviceBench)
		var outs []jobOutcome
		for _, o := range sb.outcomes {
			outs = append(outs, o...)
		}
		if err := serviceMetrics(ctx, sb.s, outs, m); err != nil {
			return rep, nil, err
		}
	}
	bad := w.check(ctx, want, nil)
	walkBad, err := layerWalk(ctx, in, rec, m)
	if err != nil {
		return rep, nil, err
	}
	bad = append(bad, walkBad...)
	m["bench.trace_overhead_pct"] = 100 * (meanOK(tracedLoop.ops)/meanOK(plain.ops) - 1)
	for k, v := range m {
		rep.Metrics[k] = metric{v, layerUnits[k]}
	}
	if err := rec.writeFile(spanPath); err != nil {
		return rep, nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.spans), spanPath)
	return rep, bad, nil
}

// layerUnits is the unit of every per-layer metric; BENCHMARK.json lists
// the same names.
var layerUnits = map[string]string{
	"scene.build_ms":            "ms",
	"distrib.route_ns":          "ns",
	"distrib.fanout":            "dest/tri",
	"core.artifact_spans_ms":    "ms",
	"texture.footprint_ms":      "ms",
	"texture.footprint_runs":    "count",
	"texture.frags_per_run":     "frag/run",
	"cache.probe_ns":            "ns",
	"cache.probes":              "count",
	"cache.hit_ratio":           "ratio",
	"core.replay_ms":            "ms",
	"engine.replay_other_ms":    "ms",
	"core.frame_decoupled_ms":   "ms",
	"core.frame_event_ms":       "ms",
	"core.replay_over_simulate": "ratio",
	"core.decoupled_over_event": "ratio",
	"engine.stall_cycles":       "cycles",
	"memory.texel_per_frag":     "texel/frag",
	"core.cycles":               "cycles",
	"sweep.classes":             "count",
	"sweep.rasterizations":      "count",
	"sweep.saved_ratio":         "ratio",
	"sweep.row_ms":              "ms",
	"sweep.rows_in_flight":      "rows",
	"sweep.memo_speedup":        "ratio",
	"resultcache.hit_ratio":     "ratio",
	"resultcache.get_us":        "us",
	"resultcache.put_us":        "us",
	"service.submit_ms":         "ms",
	"service.result_ms":         "ms",
	"service.queue_wait_ms":     "ms",
	"service.job_run_ms":        "ms",
	"service.hit_job_ms":        "ms",
	"service.rejected":          "count",
	"bench.trace_overhead_pct":  "%",
}

// meanOK is the mean latency in ms of the ops that succeeded.
func meanOK(ops []opSample) float64 {
	var lat []float64
	for _, o := range ops {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
		}
	}
	return sum(lat) / float64(len(lat))
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Printf("# %-28s n/a\n", k)
			continue
		}
		fmt.Printf("# %-28s %.6g %s\n", k, v.Value, v.Unit)
	}
}

// writeDigests stores got as the workload's recorded digests in the file
// at path, keeping the other workloads' entries.
func writeDigests(path, workload string, got map[string]string) error {
	all := make(map[string]map[string]string)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[workload] = got
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// rounds returns the op order of the first eight rounds of a round loop.
func rounds(seed uint64, stream string, n int) [][]int {
	rng := newRNG(seed, stream)
	out := make([][]int, 8)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) any{
		"frame/order":       func(seed uint64) any { return rounds(seed, "frame/order", len(frameOps())) },
		"sweep_paper/order": func(seed uint64) any { return rounds(seed, "sweep_paper/order", len(sweepPaperSpecs())) },
		"sweep_dense/order": func(seed uint64) any { return rounds(seed, "sweep_dense/order", len(sweepDenseSpecs())) },
		"service":           func(seed uint64) any { return servicePool(seed) },
	}
	for name, gen := range gens {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if a, b := gen(7), gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

func TestServicePoolIsDisjointBalancedAndValid(t *testing.T) {
	seen := make(map[string]bool)
	pool := servicePool(3)
	strata := len(frameOps()) // one per (scene, distribution)
	var merged []sweep.Spec
	for i := range pool[0] {
		merged = append(merged, pool[0][i], pool[1][i])
	}
	for r := 0; r+strata <= len(merged); r += strata {
		inRound := make(map[string]bool)
		for _, s := range merged[r : r+strata] {
			inRound[s.Scene+"/"+s.Dist] = true
		}
		if len(inRound) != strata {
			t.Fatalf("round at %d covers %d of %d strata", r, len(inRound), strata)
		}
	}
	for c, specs := range pool {
		for _, s := range specs {
			label := specLabel(s)
			if seen[label] {
				t.Fatalf("client %d: spec %s is handed out twice", c, label)
			}
			seen[label] = true
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples: no percentile has 10 samples beyond it")
	}
	cases := []struct {
		n         int
		value     float64
		pct       float64
		beyondMin int
	}{
		{11, 1, 100.0 / 11, 10},
		{20, 10, 50, 10},
		{100, 90, 90, 10},
		{1000, 990, 99, 10},
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.value || pct != c.pct {
			t.Errorf("n=%d: tail = %v at p%v (ok %v), want %v at p%v", c.n, v, pct, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != c.beyondMin {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, c.beyondMin)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestRoundLoopBalancesOps(t *testing.T) {
	counts := make([]int, 5)
	lr := roundLoop(context.Background(), 0, newRNG(1, "t"), len(counts), func(i int) opSample {
		counts[i]++
		return opSample{latency: time.Millisecond}
	})
	if len(lr.ops) != len(counts) {
		t.Fatalf("zero budget ran %d ops, want one round of %d", len(lr.ops), len(counts))
	}
	for i, n := range counts {
		if n != 1 {
			t.Errorf("op %d ran %d times in one round", i, n)
		}
	}
}

func TestCompareDigests(t *testing.T) {
	rec := map[string]string{"a": digestOf([]byte("x")), "b": digestOf([]byte("y"))}
	if bad := compareDigests(rec, map[string]string{"a": digestOf([]byte("x")), "b": digestOf([]byte("y"))}, true); len(bad) != 0 {
		t.Errorf("matching digests reported %v", bad)
	}
	if bad := compareDigests(rec, map[string]string{"a": digestOf([]byte("x"))}, true); len(bad) != 1 {
		t.Errorf("a missing label under complete: %v", bad)
	}
	if bad := compareDigests(rec, map[string]string{"a": digestOf([]byte("x"))}, false); len(bad) != 0 {
		t.Errorf("a missing label without complete: %v", bad)
	}
	if bad := compareDigests(rec, map[string]string{"c": digestOf([]byte("z"))}, false); len(bad) != 1 {
		t.Errorf("no overlap must fail: %v", bad)
	}
	if bad := compareDigests(nil, map[string]string{"a": "00"}, false); len(bad) != 1 {
		t.Errorf("no recorded digests must fail: %v", bad)
	}
}

// TestDigestCheckTripsOnPerturbedOutput records a sweep's digest, changes
// one simulated value in its result, and expects the check to fail.
func TestDigestCheckTripsOnPerturbedOutput(t *testing.T) {
	b := &sweepBench{name: "t", seed: 1, par: 1, specs: []sweep.Spec{{
		Scene: "quake", Scale: 0.1, Dist: "block", Procs: []int{4}, Sizes: []int{16}, Bus: 1, Cache: "real",
	}}}
	ctx := context.Background()
	if err := b.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if lr := b.run(ctx, 0, nil); lr.ops[0].err != nil {
		t.Fatal(lr.ops[0].err)
	}
	recorded := make(map[string]string)
	if bad := b.check(ctx, nil, recorded); len(bad) != 0 {
		t.Fatalf("clean run: %v", bad)
	}
	if bad := b.check(ctx, recorded, nil); len(bad) != 0 {
		t.Fatalf("unchanged output against its own digests: %v", bad)
	}
	b.results[0][0].Rows[0].Cycles++
	bad := b.check(ctx, recorded, nil)
	if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), "result digest") {
		t.Fatalf("perturbed output passed the digest check: %v", bad)
	}
}

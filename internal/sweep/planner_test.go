package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/scene"
	"repro/internal/trace"
)

// runMemoPair runs the spec with and without memoization and fails unless
// the rows (and flights) are byte-identical after JSON encoding. It returns
// both plan stats.
func runMemoPair(t *testing.T, spec Spec, opts RunOpts) (memo, plain PlanStats) {
	t.Helper()
	o := opts
	o.NoMemo = false
	o.Plan = &memo
	withMemo, err := RunWith(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	o.NoMemo = true
	o.Plan = &plain
	without, err := RunWith(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := json.Marshal(without)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, err := json.Marshal(withMemo)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJS) != string(gotJS) {
		t.Errorf("memoized sweep diverged\nplain: %s\nmemo:  %s", wantJS, gotJS)
	}
	return memo, plain
}

// TestPlannerEquivalenceMatrix pins the memoization contract over two scenes,
// all three distributions and a dense cache axis: the planner must change
// wall-clock only, never a byte of output.
func TestPlannerEquivalenceMatrix(t *testing.T) {
	for _, sceneName := range []string{"truc640", "room3"} {
		for _, dist := range []string{"block", "sli", "blockskewed"} {
			spec := Spec{
				Scene:  sceneName,
				Scale:  0.1,
				Dist:   dist,
				Procs:  []int{1, 4},
				Sizes:  []int{8},
				Caches: []int{1, 2, 4, 8, 16},
				Bus:    2,
			}
			memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 4})
			// 10 points + 5 baselines in 2 classes: (1,8) and (4,8).
			if memo.Points != 10 || memo.Baselines != 5 || memo.Classes != 2 {
				t.Errorf("%s/%s: plan = %+v", sceneName, dist, memo)
			}
			if memo.Rasterizations != 2 || memo.Saved != 13 || !memo.Memoized {
				t.Errorf("%s/%s: memoized plan = %+v", sceneName, dist, memo)
			}
			if plain.Rasterizations != 15 || plain.Saved != 0 || plain.Memoized {
				t.Errorf("%s/%s: plain plan = %+v", sceneName, dist, plain)
			}
			if memo.Rasterizations >= plain.Rasterizations {
				t.Errorf("%s/%s: memoization saved nothing: %d vs %d",
					sceneName, dist, memo.Rasterizations, plain.Rasterizations)
			}
		}
	}
}

// TestPlannerBusBufferAxes covers the other two dense axes (and their
// combination) on the memoization contract.
func TestPlannerBusBufferAxes(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.1,
		Procs:   []int{4},
		Sizes:   []int{8, 16},
		Buses:   []float64{0, 1, 2},
		Buffers: []int{16, 20000},
	}
	memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 4})
	// 12 points + 6 baselines in 3 classes: (1,8), (4,8), (4,16).
	if memo.Points != 12 || memo.Baselines != 6 || memo.Classes != 3 || memo.Rasterizations != 3 {
		t.Errorf("plan = %+v", memo)
	}
}

// TestMissRecordSweepMatchesNoMemo: in a cache × bus × buffer sweep every
// member of a class replays the miss record of its cache geometry, the
// small buffer on the event kernel and the big one decoupled, and the rows
// still match the unmemoized sweep byte for byte.
func TestMissRecordSweepMatchesNoMemo(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.1,
		Procs:   []int{4},
		Sizes:   []int{8},
		Caches:  []int{1, 4, 16},
		Buses:   []float64{1, 2},
		Buffers: []int{16, 20000},
	}
	for _, par := range []int{1, 2} {
		memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: par})
		// 12 points + 12 baselines in 2 classes of 3 geometries each.
		if memo.Points != 12 || memo.Baselines != 12 || memo.Classes != 2 || memo.MissRecords != 6 {
			t.Errorf("parallelism %d: plan = %+v", par, memo)
		}
		if plain.MissRecords != 0 {
			t.Errorf("parallelism %d: NoMemo plan = %+v", par, plain)
		}
	}
}

// TestPlanMissRecordsDenseSpec: the benchmark's dense sweep axes (8 cache
// sizes × 4 bus ratios on 64 processors) record 16 miss records, every
// cache geometry of each of the 2 classes, and none under NoMemo. With the
// cache axis alone each geometry of the 64-processor class has one member,
// and the class still records all 8 in one pass, from a spans-only
// artifact.
func TestPlanMissRecordsDenseSpec(t *testing.T) {
	spec := Spec{
		Scene:  "quake",
		Scale:  0.1,
		Dist:   "block",
		Procs:  []int{64},
		Sizes:  []int{8},
		Caches: []int{1, 2, 4, 8, 16, 32, 64, 128},
		Buses:  []float64{0.25, 0.5, 1, 2},
		Cache:  "real",
	}
	memo, plain := runMemoPair(t, spec, RunOpts{Parallelism: 2})
	if memo.Classes != 2 || memo.MissRecords != 16 || plain.MissRecords != 0 {
		t.Errorf("memoized plan %+v, NoMemo plan %+v", memo, plain)
	}
	spec.Buses, spec.Bus = nil, 1
	if memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 2}); memo.Classes != 2 || memo.MissRecords != 16 {
		t.Errorf("cache axis alone: memoized plan %+v", memo)
	}
	var members []member
	for _, kb := range spec.Caches {
		members = append(members, member{core.CacheReal, cacheConfigKB(kb), 1})
	}
	pl, cs, sc := sealedClass(t, spec, members)
	if pl.stats.MissRecords != len(spec.Caches) {
		t.Errorf("one member per geometry: plan %+v", pl.stats)
	}
	art, err := cs.acquire(context.Background(), sc, distrib.BlockKind, 2)
	if err != nil {
		t.Fatal(err)
	}
	if art.HasFootprints {
		t.Error("a memoized real-cache class built footprint streams no member reads")
	}
	for _, m := range members {
		rec, err := cs.record(context.Background(), sc, m.geom, 2)
		if err != nil || rec.Cache != m.geom {
			t.Errorf("%+v: record %v, %v", m.geom, rec, err)
		}
	}
}

// member is one simulation registered with a plan.
type member struct {
	kind core.CacheKind
	geom cache.Config
	bus  float64
}

// sealedClass registers members in spec's (Procs[0], Sizes[0]) class of a
// memoizing plan, seals the plan and returns it, the class and spec's
// scene.
func sealedClass(t *testing.T, spec Spec, members []member) (*plan, *classState, *trace.Scene) {
	t.Helper()
	b, err := scene.ByName(spec.Scene, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlan(true)
	var cs *classState
	for _, m := range members {
		cs = pl.add(spec, spec.Procs[0], spec.Sizes[0], m.kind, m.geom, m.bus)
	}
	pl.seal(len(members), 0)
	return pl, cs, sc
}

// cancelAfter is a context that cancels itself at its polls-th Err call.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int32
	at     int32
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestPlanRecordCancelled: a class recording cancelled after its first node
// fails every member blocked on it with the cancellation, and a member
// that asks after it failed gets the same error.
func TestPlanRecordCancelled(t *testing.T) {
	spec := Spec{Scene: "truc640", Scale: 0.1, Dist: "block", Procs: []int{16}, Sizes: []int{8}}
	var members []member
	for _, kb := range []int{1, 4, 16, 64} {
		members = append(members, member{core.CacheReal, cacheConfigKB(kb), 1})
	}
	_, cs, sc := sealedClass(t, spec, members)
	if _, err := cs.acquire(context.Background(), sc, distrib.BlockKind, 1); err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfter{Context: parent, cancel: cancel, at: 2}
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = cs.record(ctx, sc, m.geom, 1)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("member %d: %v, want the cancellation", i, err)
		}
	}
	if n := ctx.polls.Load(); n != 2 {
		t.Errorf("recording polled its context %d times, want 2: one node, then the cancellation", n)
	}
	if _, err := cs.record(context.Background(), sc, members[0].geom, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("late member: %v, want the remembered cancellation", err)
	}
}

// TestPlannerFootprintClasses: a class builds footprint streams exactly when
// a member reads them from the artifact — a perfect cache behind a finite
// bus or a cacheless node, alone or beside real-cache members — and such
// sweeps still memoize and match NoMemo byte for byte. Real-cache classes
// replay miss records and pure-scan classes read spans alone.
func TestPlannerFootprintClasses(t *testing.T) {
	for _, c := range []struct {
		cache string
		bus   float64
	}{{"perfect", 2}, {"none", 1}} {
		spec := Spec{Scene: "truc640", Scale: 0.1, Procs: []int{4}, Sizes: []int{8}, Cache: c.cache,
			Bus: c.bus, Buffers: []int{16, 20000}}
		if memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 2}); memo.Rasterizations != 2 || memo.MissRecords != 0 {
			t.Errorf("%s cache, bus %v: plan %+v", c.cache, c.bus, memo)
		}
	}
	paper := cache.PaperConfig()
	spec := Spec{Scene: "truc640", Scale: 0.1, Dist: "block", Procs: []int{4}, Sizes: []int{8}}
	for _, c := range []struct {
		name       string
		members    []member
		footprints bool
	}{
		{"real", []member{{core.CacheReal, paper, 1}, {core.CacheReal, paper, 2}}, false},
		{"pure scan", []member{{core.CachePerfect, paper, 0}, {core.CachePerfect, paper, 0}}, false},
		{"perfect behind a bus", []member{{core.CachePerfect, paper, 0}, {core.CachePerfect, paper, 1}}, true},
		{"cacheless", []member{{core.CacheNone, paper, 1}, {core.CacheNone, paper, 2}}, true},
		{"real and cacheless", []member{{core.CacheReal, paper, 1}, {core.CacheNone, paper, 1}}, true},
	} {
		_, cs, sc := sealedClass(t, spec, c.members)
		art, err := cs.acquire(context.Background(), sc, distrib.BlockKind, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !cs.memoized || art.HasFootprints != c.footprints {
			t.Errorf("%s: memoized %v, footprints %v, want true, %v", c.name, cs.memoized, art.HasFootprints, c.footprints)
		}
	}
}

// TestPlannerPerfectCacheSpansOnly: a pure-scan sweep (perfect cache,
// infinite bus) memoizes through the cheaper spans-only artifact and still
// matches the unmemoized run byte for byte.
func TestPlannerPerfectCacheSpansOnly(t *testing.T) {
	spec := Spec{
		Scene:   "truc640",
		Scale:   0.2,
		Procs:   []int{4},
		Sizes:   []int{8},
		Cache:   "perfect",
		Buffers: []int{16, 64, 20000},
	}
	memo, _ := runMemoPair(t, spec, RunOpts{Parallelism: 2})
	if memo.Rasterizations != 2 { // classes (1,8) and (4,8)
		t.Errorf("plan = %+v", memo)
	}
}

// TestPlannerFlightSweepMemoizes: the flight recorder forces the event
// kernel, whose replay path must also be byte-identical, recordings
// included.
func TestPlannerFlightSweepMemoizes(t *testing.T) {
	spec := Spec{
		Scene:  "truc640",
		Scale:  0.1,
		Procs:  []int{2},
		Sizes:  []int{8},
		Caches: []int{4, 16},
		Flight: true,
	}
	runMemoPair(t, spec, RunOpts{Parallelism: 2})
}

// TestRasterClassKeySeparation: classing must never group configurations
// that differ in any raster-relevant field, and must group ones that differ
// only in cache, bus, buffer or flight settings.
func TestRasterClassKeySeparation(t *testing.T) {
	base := Spec{Scene: "truc640", Scale: 0.2, Dist: "block"}
	key := base.RasterClassKey(4, 8)
	if key == "" {
		t.Fatal("empty class key")
	}
	distinct := map[string]string{
		"scene":      Spec{Scene: "room3", Scale: 0.2, Dist: "block"}.RasterClassKey(4, 8),
		"resolution": Spec{Scene: "truc640", Scale: 0.4, Dist: "block"}.RasterClassKey(4, 8),
		"dist":       Spec{Scene: "truc640", Scale: 0.2, Dist: "sli"}.RasterClassKey(4, 8),
		"procs":      base.RasterClassKey(8, 8),
		"size":       base.RasterClassKey(4, 16),
	}
	for field, got := range distinct {
		if got == key {
			t.Errorf("configs differing in %s share a raster class", field)
		}
	}
	same := base
	same.Cache = "none"
	same.Bus = 2
	same.Buffer = 64
	same.Flight = true
	same.Caches = nil
	if got := same.RasterClassKey(4, 8); got != key {
		t.Error("configs differing only in non-raster fields split classes")
	}
}

// TestAxisValidation pins the new axis rules: positive cache sizes with a
// valid geometry, the real cache model, and mutual exclusion with the
// scalar fields.
func TestAxisValidation(t *testing.T) {
	bad := []Spec{
		{Scene: "truc640", Caches: []int{0}},
		{Scene: "truc640", Caches: []int{3}}, // 12 sets: not a power of two
		{Scene: "truc640", Cache: "perfect", Caches: []int{16}},
		{Scene: "truc640", Bus: 1, Buses: []float64{2}},
		{Scene: "truc640", Buses: []float64{-1}},
		{Scene: "truc640", Buffer: 16, Buffers: []int{32}},
		{Scene: "truc640", Buffers: []int{0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Scene: "truc640", Caches: []int{1, 4, 64}, Buses: []float64{0, 2}, Buffers: []int{8}}
	if err := good.Validate(); err != nil {
		t.Errorf("axis spec rejected: %v", err)
	}
}

// TestAxisRowShape: axis sweeps carry the echo columns in row JSON and CSV;
// axis-free sweeps keep their historical bytes.
func TestAxisRowShape(t *testing.T) {
	spec := Spec{
		Scene:  "truc640",
		Scale:  0.2,
		Procs:  []int{2},
		Sizes:  []int{8},
		Caches: []int{4, 16},
		Bus:    0.5, // finite: cache size must show up in cycles
	}
	res, err := RunWith(context.Background(), spec, RunOpts{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0].CacheKB != 4 || res.Rows[1].CacheKB != 16 {
		t.Errorf("cache axis not echoed: %+v", res.Rows)
	}
	if res.Rows[0].Cycles <= res.Rows[1].Cycles {
		t.Errorf("bigger cache not faster: %+v", res.Rows)
	}
	js, err := json.Marshal(res.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"cache_kb":4`) {
		t.Errorf("row JSON lacks cache_kb: %s", js)
	}

	var buf strings.Builder
	if err := WriteCSV(&buf, res.Rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[0], ",cache_kb,bus,buffer") {
		t.Errorf("axis CSV header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",4,0,0") {
		t.Errorf("axis CSV row = %q", lines[1])
	}

	// Axis-free rows: no echo fields in JSON, base CSV header.
	plain, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	js, err = json.Marshal(plain.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cache_kb", `"bus"`, `"buffer"`} {
		if strings.Contains(string(js), field) {
			t.Errorf("axis-free row JSON contains %s: %s", field, js)
		}
	}
}

// TestPointHashDistinguishesAxes: progress hashes must differ for points
// sharing (procs, size) but differing on an axis, and RowHash must keep its
// historical value for axis-free specs.
func TestPointHashDistinguishesAxes(t *testing.T) {
	spec := Spec{Scene: "truc640", Caches: []int{4, 16}}
	a := spec.pointHash(point{procs: 4, size: 8, cacheKB: 4})
	b := spec.pointHash(point{procs: 4, size: 8, cacheKB: 16})
	if a == b {
		t.Error("points differing in cache size share a hash")
	}
	plain := Spec{Scene: "truc640"}
	if plain.pointHash(point{procs: 4, size: 8}) != plain.RowHash(4, 8) {
		t.Error("pointHash diverges from RowHash on an axis-free spec")
	}
}

// TestRunWithPlanStatsOptional: a nil Plan out-param stays nil-safe, and
// Result.Plan is never set by RunWith itself.
func TestRunWithPlanStatsOptional(t *testing.T) {
	res, err := RunWith(context.Background(), tinySpec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Error("RunWith set Result.Plan; plan stats must stay out of cacheable results")
	}
	var stats PlanStats
	res2, err := RunWith(context.Background(), tinySpec, RunOpts{Plan: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(res2.Rows) || stats.Classes == 0 {
		t.Errorf("plan stats not populated: %+v", stats)
	}
	if !reflect.DeepEqual(res.Rows, res2.Rows) {
		t.Error("requesting plan stats changed the rows")
	}
}

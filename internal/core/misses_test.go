package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/trace"
)

// TestMissRecordMatchesLive: a machine replaying a miss record reproduces the
// live-probing run byte for byte at geometries where the engine accounts a
// run's repeats in bulk and where it probes every fragment (RepeatHits
// false: 1-way, 2-way, one set), on both kernels and behind an L2. The
// record holds exactly one mask per probe the engine makes: one per run, or
// one per fragment.
func TestMissRecordMatchesLive(t *testing.T) {
	s := benchSceneFor(t, "quake", 0.1)
	const line = 64
	geoms := []cache.Config{
		{SizeBytes: 16 * line, Ways: 1, LineBytes: line},
		{SizeBytes: 32 * line, Ways: 2, LineBytes: line},
		{SizeBytes: 4 * line, Ways: 4, LineBytes: line}, // one set
		{SizeBytes: 8 * line, Ways: 8, LineBytes: line}, // one set, repeats hit
		cache.PaperConfig(),
	}
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 4, distrib.BlockKind, 8, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var runs, frags int
	for _, tri := range a.Frames[0].Tris {
		for _, d := range tri.Dests {
			runs += len(d.Work.Reps)
			for _, n := range d.Work.Reps {
				frags += int(n)
			}
		}
	}
	for _, g := range geoms {
		rec, err := RecordMisses(context.Background(), a, g, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := runs
		if !cache.New(g).RepeatHits() {
			want = frags
		}
		if len(rec.masks) != want || cap(rec.masks) != want {
			t.Errorf("%+v: record holds %d masks (cap %d), want exactly %d", g, len(rec.masks), cap(rec.masks), want)
		}
		for _, buf := range []int{DefaultTriangleBuffer, goldenSmallBuffer} {
			for _, l2 := range []bool{false, true} {
				cfg := Config{Procs: 4, TileSize: 8, CacheConfig: g, TriangleBuffer: buf,
					Bus: memory.BusConfig{TexelsPerCycle: 1}}
				if l2 {
					cfg.L2Config, cfg.MainBus = l2Config(), memory.BusConfig{TexelsPerCycle: 0.5}
				}
				live, err := Simulate(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := runRecorded(t, []*trace.Scene{s}, cfg)[0]
				if digestJSON(t, got) != digestJSON(t, live) {
					t.Errorf("%+v buffer %d L2 %v: replayed record diverged from live probing\nlive:   %+v\nrecord: %+v",
						g, buf, l2, live.Nodes[0], got.Nodes[0])
				}
			}
		}
	}
}

// TestMissRecordReusesBuffer: a record made with reuse takes over the
// released record's mask buffer and still replays its own geometry exactly.
func TestMissRecordReusesBuffer(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 4, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	small := cache.Config{SizeBytes: 1024, Ways: 4, LineBytes: 64}
	old, err := RecordMisses(ctx, a, small, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordMisses(ctx, a, cache.PaperConfig(), 0, old)
	if err != nil {
		t.Fatal(err)
	}
	if &rec.masks[0] != &old.masks[0] {
		t.Error("record did not reuse the released record's buffer")
	}
	cfg := Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	live, err := Simulate(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMissRecord(rec); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // a rerun rewinds the replay
		if got := m.Run(); digestJSON(t, got) != digestJSON(t, live) {
			t.Errorf("run %d: replay of a reused buffer diverged from live probing", run)
		}
	}
}

// TestSetMissRecordRejectsMismatch: a record attaches only to a real-cache
// machine of its geometry that has its artifact attached, and a run refuses
// a record whose artifact was swapped out after attaching.
func TestSetMissRecordRejectsMismatch(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	build := func(opts ArtifactOpts) *RasterArtifact {
		a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 4, distrib.BlockKind, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, other := build(ArtifactOpts{}), build(ArtifactOpts{})
	if _, err := RecordMisses(ctx, build(ArtifactOpts{SpansOnly: true}), cache.PaperConfig(), 0, nil); err == nil {
		t.Error("recorded misses from a spans-only artifact")
	}
	rec, err := RecordMisses(ctx, a, cache.PaperConfig(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	machine := func(cfg Config, art *RasterArtifact) *Machine {
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(art); err != nil {
			t.Fatal(err)
		}
		return m
	}
	realCfg := Config{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	bad := map[string]*Machine{
		"no artifact":         machine(realCfg, nil),
		"other artifact":      machine(realCfg, other),
		"other geometry":      machine(Config{Procs: 4, CacheConfig: cache.Config{SizeBytes: 8192, Ways: 4, LineBytes: 64}}, a),
		"perfect cache":       machine(Config{Procs: 4, CacheKind: CachePerfect}, a),
		"cacheless":           machine(Config{Procs: 4, CacheKind: CacheNone}, a),
		"other associativity": machine(Config{Procs: 4, CacheConfig: cache.Config{SizeBytes: 16384, Ways: 8, LineBytes: 64}}, a),
	}
	for name, m := range bad {
		if err := m.SetMissRecord(rec); err == nil {
			t.Errorf("%s: attached a mismatched miss record", name)
		}
	}
	m := machine(realCfg, a)
	if err := m.SetMissRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(other); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); err == nil || !strings.Contains(err.Error(), "miss record") {
		t.Errorf("ran a miss record against a swapped artifact: %v", err)
	}
	if err := m.SetMissRecord(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); err != nil {
		t.Errorf("detached record: %v", err)
	}
}

// TestMissRecordAllocatesNoL1Tags: a machine replaying a record builds no L1
// tag arrays. With a 4 MB L1 (256 KB of tags per node) on 8 nodes, the whole
// run allocates less than one node's tags; the same run probing live
// allocates all eight.
func TestMissRecordAllocatesNoL1Tags(t *testing.T) {
	ctx := context.Background()
	s := benchSceneFor(t, "truc640", 0.1)
	big := cache.Config{SizeBytes: 4 << 20, Ways: 4, LineBytes: 64}
	const tagBytes = (4 << 20) / 64 * 4
	cfg := Config{Procs: 8, CacheConfig: big, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 8, distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordMisses(ctx, a, big, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(withRecord bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
		if withRecord {
			if err := m.SetMissRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		m.Run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if live := allocated(false); live < 8*tagBytes {
		t.Fatalf("live run allocated %d bytes, less than its %d bytes of L1 tags", live, 8*tagBytes)
	}
	if replayed := allocated(true); replayed >= tagBytes {
		t.Errorf("replaying run allocated %d bytes, at least one node's %d bytes of L1 tags", replayed, tagBytes)
	}
}

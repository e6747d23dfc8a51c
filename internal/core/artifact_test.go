package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/trace"
)

// runArtifactPair simulates frames under cfg from scratch and by replaying a
// prebuilt raster artifact, both forced onto the event kernel when events is
// set, and fails unless the per-frame results are byte-identical after JSON
// encoding. It returns the replaying machine.
func runArtifactPair(t *testing.T, frames []*trace.Scene, cfg Config, events bool, opts ArtifactOpts) *Machine {
	t.Helper()
	direct, err := NewMachine(frames[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct.forceEvents = events
	want, err := direct.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}

	cfgd := cfg.withDefaults()
	a, err := BuildRasterArtifact(context.Background(), frames, cfgd.Procs,
		cfgd.Distribution, cfgd.TileSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := NewMachine(frames[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay.forceEvents = events
	if err := replay.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	got, err := replay.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wantJS, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gotJS, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(wantJS) != string(gotJS) {
			t.Errorf("frame %d: replay diverged\ndirect: %s\nreplay: %s", i, wantJS, gotJS)
		}
	}
	return replay
}

// TestArtifactReplayEquivalenceMatrix pins the replay contract across
// benchmark scenes, every distribution family, every cache kind and both
// kernels: replaying an artifact must be indistinguishable from rasterizing.
func TestArtifactReplayEquivalenceMatrix(t *testing.T) {
	dists := []struct {
		kind distrib.Kind
		tile int
	}{
		{distrib.BlockKind, 16},
		{distrib.SLIKind, 2},
		{distrib.BlockSkewedKind, 8},
	}
	caches := []CacheKind{CacheReal, CachePerfect, CacheNone}
	for _, name := range []string{"massive11255", "room3"} {
		s := benchSceneFor(t, name, 0.1)
		for _, d := range dists {
			for _, ck := range caches {
				for _, events := range []bool{true, false} {
					cfg := Config{
						Procs: 8, Distribution: d.kind, TileSize: d.tile,
						CacheKind: ck,
						Bus:       memory.BusConfig{TexelsPerCycle: 2},
					}
					runArtifactPair(t, []*trace.Scene{s}, cfg, events, ArtifactOpts{})
				}
			}
		}
	}
}

// TestArtifactReplayNoRepeatGuarantee covers cache geometries where the
// repeat-hit fast path must stay off — a single-set 4-way cache can alias an
// entire footprint into one set — so the replay takes the slow per-fragment
// path and must still match exactly.
func TestArtifactReplayNoRepeatGuarantee(t *testing.T) {
	s := testScene(7, 120, 128)
	cfg := Config{
		Procs: 4,
		CacheConfig: cache.Config{
			SizeBytes: 4 * 64, Ways: 4, LineBytes: 64, // 1 set: RepeatHits false
		},
		Bus: memory.BusConfig{TexelsPerCycle: 1},
	}
	runArtifactPair(t, []*trace.Scene{s}, cfg, true, ArtifactOpts{})
	runArtifactPair(t, []*trace.Scene{s}, cfg, false, ArtifactOpts{})
}

// TestArtifactReplayL2 checks replay with the two-level hierarchy and a
// finite main-memory bus.
func TestArtifactReplayL2(t *testing.T) {
	s := benchSceneFor(t, "blowout775", 0.15)
	cfg := Config{
		Procs: 4, L2Config: l2Config(),
		Bus:     memory.BusConfig{TexelsPerCycle: 2},
		MainBus: memory.BusConfig{TexelsPerCycle: 1},
	}
	runArtifactPair(t, []*trace.Scene{s}, cfg, false, ArtifactOpts{})
}

// TestArtifactReplaySequence checks frame sequences: one artifact holds all
// frames and the inter-frame cache state must evolve exactly as in a direct
// run.
func TestArtifactReplaySequence(t *testing.T) {
	base := benchSceneFor(t, "room3", 0.1)
	frames := scene.PanSequence(base, 4, 3, 1)
	m := runArtifactPair(t, frames, Config{Procs: 8, TileSize: 8}, false, ArtifactOpts{})
	if m.parallelFrames != len(frames) {
		t.Errorf("replay ran %d of %d frames on the parallel kernel", m.parallelFrames, len(frames))
	}
}

// TestArtifactReplayEventKernel forces the coupled event kernel with a small
// triangle buffer: the replay distributor must model the same back-pressure,
// FIFO peaks included.
func TestArtifactReplayEventKernel(t *testing.T) {
	s := testScene(5, 60, 96)
	m := runArtifactPair(t, []*trace.Scene{s}, Config{Procs: 4, TriangleBuffer: 8}, false, ArtifactOpts{})
	if m.parallelFrames != 0 {
		t.Error("parallel kernel engaged despite a small triangle buffer")
	}
}

// TestArtifactSpansOnly: a spans-only artifact replays byte-identically on
// every machine — a pure-scan one never consults addresses, and any other
// regenerates them inline from the source triangles — on both kernels.
func TestArtifactSpansOnly(t *testing.T) {
	s := testScene(11, 50, 64)
	for _, cfg := range []Config{
		{Procs: 4, CacheKind: CachePerfect},
		{Procs: 4, Bus: memory.BusConfig{TexelsPerCycle: 1}},
		{Procs: 4, CacheKind: CacheNone, Bus: memory.BusConfig{TexelsPerCycle: 2}},
	} {
		for _, events := range []bool{true, false} {
			runArtifactPair(t, []*trace.Scene{s}, cfg, events, ArtifactOpts{SpansOnly: true})
		}
	}
}

// TestArtifactValidation pins the attach- and run-time checks that keep an
// artifact from replaying on a machine it was not built for.
func TestArtifactValidation(t *testing.T) {
	s := testScene(3, 40, 64)
	a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 4,
		distrib.BlockKind, 16, ArtifactOpts{})
	if err != nil {
		t.Fatal(err)
	}
	newM := func(cfg Config) *Machine {
		t.Helper()
		m, err := NewMachine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := newM(Config{Procs: 8}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different processor count")
	}
	if err := newM(Config{Procs: 4, Distribution: distrib.SLIKind, TileSize: 2}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different distribution")
	}
	if err := newM(Config{Procs: 4, TileSize: 8}).SetRasterArtifact(a); err == nil {
		t.Error("artifact accepted by a machine with a different tile size")
	}

	m := newM(Config{Procs: 4})
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	other := testScene(4, 40, 64)
	other.Name = "core-test-other"
	if _, err := m.RunSequence([]*trace.Scene{other}); err == nil ||
		!strings.Contains(err.Error(), "artifact") {
		t.Errorf("run on a different scene: err = %v, want artifact mismatch", err)
	}
	if _, err := m.RunSequence([]*trace.Scene{s, s}); err == nil {
		t.Error("run with a different frame count accepted")
	}
	if err := m.SetRasterArtifact(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunSequence([]*trace.Scene{other}); err != nil {
		t.Errorf("detached machine refused a normal run: %v", err)
	}
}

// TestArtifactBuildDeterministic: the artifact bytes are independent of the
// build parallelism.
func TestArtifactBuildDeterministic(t *testing.T) {
	s := testScene(9, 80, 128)
	frames := []*trace.Scene{s}
	enc := func(workers int) []byte {
		a, err := BuildRasterArtifact(context.Background(), frames, 4,
			distrib.BlockKind, 16, ArtifactOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeRasterArtifact(&buf, a); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(1), enc(8)) {
		t.Error("artifact bytes depend on build parallelism")
	}
}

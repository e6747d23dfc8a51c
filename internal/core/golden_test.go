package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/trace"
)

var updateGoldenDigests = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.json from the current simulator")

const goldenDigestsPath = "testdata/golden_digests.json"

// goldenSmallBuffer is the §8 triangle-FIFO depth of the corpus: small
// enough that the FIFOs back-pressure the distributor on every scene.
const goldenSmallBuffer = 8

// digestJSON returns the hex sha256 of v's canonical JSON encoding.
func digestJSON(t *testing.T, v any) string {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// goldenCorpus runs the fixed result matrix and returns each case's digest.
// Every case is a cold run on a fresh machine. Each real-cache case is run a
// second time through a miss record (runRecorded), and that run's digest is
// returned under the case's name in recorded.
func goldenCorpus(t *testing.T) (out, recorded map[string]string) {
	t.Helper()
	out, recorded = make(map[string]string), make(map[string]string)
	simulate := func(name string, s *trace.Scene, cfg Config) {
		res, err := Simulate(s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = digestJSON(t, res)
		if cfg.CacheKind == CacheReal {
			recorded[name] = digestJSON(t, runRecorded(t, []*trace.Scene{s}, cfg)[0])
		}
	}

	// Table 1 scenes × distribution families × cache kinds, each at the
	// paper's "big enough" buffer and at a §8 small buffer. The perfect
	// cache runs on an infinite bus (the paper's load-balancing setting);
	// the others on a 1 texel/cycle bus.
	dists := []struct {
		kind distrib.Kind
		tile int
	}{
		{distrib.BlockKind, 16},
		{distrib.SLIKind, 2},
		{distrib.BlockSkewedKind, 8},
	}
	for _, name := range scene.Names() {
		s := benchSceneFor(t, name, 0.1)
		for _, d := range dists {
			for _, ck := range []CacheKind{CacheReal, CachePerfect, CacheNone} {
				for _, buf := range []int{DefaultTriangleBuffer, goldenSmallBuffer} {
					cfg := Config{
						Procs: 8, Distribution: d.kind, TileSize: d.tile,
						CacheKind: ck, TriangleBuffer: buf,
					}
					if ck != CachePerfect {
						cfg.Bus = memory.BusConfig{TexelsPerCycle: 1}
					}
					simulate(fmt.Sprintf("%s/%s%d/%s/buf%d", name, d.kind, d.tile, ck, buf), s, cfg)
				}
			}
		}
	}

	// Random geometry with degenerate and off-screen triangles, at both
	// buffers, and a perfect cache on a finite bus (not pure scan).
	random := testScene(19, 80, 128)
	for _, buf := range []int{DefaultTriangleBuffer, 2} {
		simulate(fmt.Sprintf("random19/block2/p5/buf%d", buf), random, Config{
			Procs: 5, TileSize: 2, TriangleBuffer: buf,
			Bus: memory.BusConfig{TexelsPerCycle: 1},
		})
	}
	quake := benchSceneFor(t, "quake", 0.1)
	simulate("quake/block16/perfect-bus1", quake, Config{Procs: 8, CacheKind: CachePerfect,
		Bus: memory.BusConfig{TexelsPerCycle: 1}})

	// One configuration run every way a machine can be driven: one node
	// worker, a flight recorder attached, and replay of a prebuilt raster
	// artifact. All three must reproduce the plain run's bytes.
	one := Config{Procs: 8, Bus: memory.BusConfig{TexelsPerCycle: 1}}
	simulate("quake/block16/real", quake, one)
	drive := func(name string, setup func(*Machine)) {
		m, err := NewMachine(quake, one)
		if err != nil {
			t.Fatal(err)
		}
		setup(m)
		out[name] = digestJSON(t, m.Run())
	}
	drive("quake/block16/real/nodepar1", func(m *Machine) { m.SetNodeParallelism(1) })
	drive("quake/block16/real/flight", func(m *Machine) { m.EnableFlightRecorder(0) })
	drive("quake/block16/real/replay", func(m *Machine) {
		a, err := BuildRasterArtifact(context.Background(), []*trace.Scene{quake}, 8,
			distrib.BlockKind, 16, ArtifactOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRasterArtifact(a); err != nil {
			t.Fatal(err)
		}
	})

	// Two-level hierarchy with a finite main-memory bus.
	simulate("blowout775/l2", benchSceneFor(t, "blowout775", 0.1), Config{
		Procs: 4, L2Config: l2Config(),
		Bus:     memory.BusConfig{TexelsPerCycle: 2},
		MainBus: memory.BusConfig{TexelsPerCycle: 1},
	})

	// A 4-frame pan: per-frame results over warm inter-frame caches.
	frames := scene.PanSequence(benchSceneFor(t, "room3", 0.1), 4, 3, 1)
	m, err := NewMachine(frames[0], Config{Procs: 8, TileSize: 8, Bus: memory.BusConfig{TexelsPerCycle: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	out["room3/pan4"] = digestJSON(t, seq)
	recorded["room3/pan4"] = digestJSON(t, runRecorded(t, frames, m.cfg))

	// The §9 alternatives: dynamic tile scheduling and sort-last.
	dyn, err := SimulateDynamic(quake, Config{Procs: 8, TileSize: 16,
		Bus: memory.BusConfig{TexelsPerCycle: 1}}, DynamicLPT)
	if err != nil {
		t.Fatal(err)
	}
	out["quake/dynamic-lpt"] = digestJSON(t, dyn)
	sl, err := SimulateSortLast(quake, Config{Procs: 8,
		Bus: memory.BusConfig{TexelsPerCycle: 1}}, SortLastChunked)
	if err != nil {
		t.Fatal(err)
	}
	out["quake/sortlast-chunked"] = digestJSON(t, sl)
	return out, recorded
}

// runRecorded runs frames on cfg (a real-cache configuration) by replay of
// a raster artifact and of the L1 miss events recorded from it, instead of
// probing the L1. The artifact is spans-only, as a memoized sweep class
// builds it, unless cfg's L2 needs the footprints.
func runRecorded(t *testing.T, frames []*trace.Scene, cfg Config) []*Result {
	t.Helper()
	ctx := context.Background()
	cfg = cfg.withDefaults()
	a, err := BuildRasterArtifact(ctx, frames, cfg.Procs, cfg.Distribution, cfg.TileSize, ArtifactOpts{SpansOnly: !cfg.HasL2()})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RecordMisses(ctx, a, frames, []cache.Config{cfg.CacheConfig}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	m, err := NewMachine(frames[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRasterArtifact(a); err != nil {
		t.Fatal(err)
	}
	if err := m.SetMissRecord(rec); err != nil {
		t.Fatal(err)
	}
	seq, err := m.RunSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestGoldenResultDigests pins the simulator's results against recorded
// truth: the sha256 of each case's canonical Result JSON must match the
// checked-in corpus. Any change in result bytes is a bug under the
// determinism contract; regenerate with -update-golden only for a change
// that is meant to alter results, and say why in the change description.
// Every real-cache case must also reproduce its recorded digest when its
// L1 replays a miss record instead of probing.
func TestGoldenResultDigests(t *testing.T) {
	got, recorded := goldenCorpus(t)
	if *updateGoldenDigests {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenDigestsPath), append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(goldenDigestsPath))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: result digest %s, recorded %s", name, got[name], want[name])
		}
	}
	for _, name := range names {
		if d, ok := recorded[name]; ok && d != want[name] {
			t.Errorf("%s: result digest through a miss record %s, recorded %s", name, d, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: case missing from %s (regenerate with -update-golden)", name, goldenDigestsPath)
		}
	}
}

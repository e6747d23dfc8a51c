package core

import (
	"encoding/json"
	"testing"

	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/trace"
)

// runKernelPair simulates s under cfg on the event-driven kernel (forced
// through the test-only forceEvents field) and with the machine's own kernel
// choice, and fails the test unless the results are byte-identical after
// JSON encoding (cycles, fragments, texels, cache statistics, FIFO peaks —
// everything the simulator reports). It returns the second machine so
// callers can inspect which kernel actually ran.
func runKernelPair(t *testing.T, s *trace.Scene, cfg Config) *Machine {
	t.Helper()
	serial, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial.forceEvents = true
	par, err := NewMachine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par.SetNodeParallelism(4)
	want, got := serial.Run(), par.Run()
	wantJS, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJS) != string(gotJS) {
		t.Errorf("kernels disagree\nserial:   %s\nparallel: %s", wantJS, gotJS)
	}
	if serial.parallelFrames != 0 {
		t.Error("serial machine ran the parallel kernel")
	}
	return par
}

// TestParallelKernelEquivalenceMatrix pins the equivalence contract across
// every Table 1 benchmark scene, every distribution family, and every cache
// kind: the parallel kernel must be indistinguishable from the event kernel
// in everything but wall-clock.
func TestParallelKernelEquivalenceMatrix(t *testing.T) {
	dists := []struct {
		kind distrib.Kind
		tile int
	}{
		{distrib.BlockKind, 16},
		{distrib.SLIKind, 2},
		{distrib.BlockSkewedKind, 8},
	}
	caches := []CacheKind{CacheReal, CachePerfect, CacheNone}
	for _, name := range scene.Names() {
		s := benchSceneFor(t, name, 0.1)
		for _, d := range dists {
			for _, ck := range caches {
				cfg := Config{
					Procs: 8, Distribution: d.kind, TileSize: d.tile,
					CacheKind: ck,
					Bus:       memory.BusConfig{TexelsPerCycle: 2},
				}
				m := runKernelPair(t, s, cfg)
				if m.parallelFrames == 0 {
					t.Errorf("%s/%s%d/%s: parallel kernel never engaged",
						name, d.kind, d.tile, ck)
				}
			}
		}
	}
}

// TestParallelKernelRandomScenes covers geometry the benchmark builders do
// not produce (degenerate and offscreen triangles from the random generator)
// at several tile sizes and processor counts.
func TestParallelKernelRandomScenes(t *testing.T) {
	for _, seed := range []int64{3, 19} {
		s := testScene(seed, 80, 128)
		for _, procs := range []int{2, 5, 16} {
			for _, tile := range []int{2, 16, 64} {
				m := runKernelPair(t, s, Config{
					Procs: procs, TileSize: tile,
					Bus: memory.BusConfig{TexelsPerCycle: 1},
				})
				if m.parallelFrames == 0 {
					t.Errorf("seed%d/p%d/t%d: parallel kernel never engaged",
						seed, procs, tile)
				}
			}
		}
	}
}

// TestParallelKernelL2 checks equivalence with the two-level cache hierarchy
// and a finite main-memory bus.
func TestParallelKernelL2(t *testing.T) {
	s := benchSceneFor(t, "blowout775", 0.15)
	m := runKernelPair(t, s, Config{
		Procs: 4, L2Config: l2Config(),
		Bus:     memory.BusConfig{TexelsPerCycle: 2},
		MainBus: memory.BusConfig{TexelsPerCycle: 1},
	})
	if m.parallelFrames == 0 {
		t.Error("parallel kernel never engaged")
	}
}

// TestParallelKernelSequence checks frame sequences: per-frame snapshots and
// the inter-frame cache state they depend on must match the event kernel.
// One node worker is only a worker bound, not a kernel choice: at the
// default buffer every frame still runs decoupled.
func TestParallelKernelSequence(t *testing.T) {
	base := benchSceneFor(t, "room3", 0.1)
	frames := scene.PanSequence(base, 4, 3, 1)
	cfg := Config{Procs: 8, TileSize: 8}

	run := func(events bool, nodePar int) ([]*Result, *Machine) {
		m, err := NewMachine(frames[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.forceEvents = events
		m.SetNodeParallelism(nodePar)
		rs, err := m.RunSequence(frames)
		if err != nil {
			t.Fatal(err)
		}
		return rs, m
	}
	want, _ := run(true, 4)
	for _, nodePar := range []int{1, 4} {
		got, m := run(false, nodePar)
		if m.parallelFrames != len(frames) {
			t.Errorf("node parallelism %d: parallel kernel ran %d of %d frames",
				nodePar, m.parallelFrames, len(frames))
		}
		for i := range want {
			wantJS, _ := json.Marshal(want[i])
			gotJS, _ := json.Marshal(got[i])
			if string(wantJS) != string(gotJS) {
				t.Errorf("node parallelism %d, frame %d: kernels disagree\nserial:   %s\nparallel: %s",
					nodePar, i, wantJS, gotJS)
			}
		}
	}
}

// TestParallelKernelSmallBufferFallsBack pins the §8 rule: any TriangleBuffer
// below the paper default can back-pressure the distributor, so the machine
// must use the event kernel regardless of the parallelism setting.
func TestParallelKernelSmallBufferFallsBack(t *testing.T) {
	s := testScene(5, 60, 96)
	m := runKernelPair(t, s, Config{Procs: 4, TriangleBuffer: 8})
	if m.parallelFrames != 0 {
		t.Error("parallel kernel engaged despite a small triangle buffer")
	}
}

// TestParallelKernelOverfullFIFOFallsBack builds a frame with more triangles
// than one node's FIFO holds: the routing pre-pass must detect the overflow
// and hand the frame to the event kernel, which models the real stall.
func TestParallelKernelOverfullFIFOFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >10000-triangle scene")
	}
	// ~1.5% of the random triangles land offscreen and are never routed, so
	// overshoot the FIFO capacity by enough that node 0 still overflows.
	s := testScene(9, DefaultTriangleBuffer+300, 64)
	m := runKernelPair(t, s, Config{Procs: 1, CacheKind: CachePerfect})
	if m.parallelFrames != 0 {
		t.Error("parallel kernel engaged despite FIFO overflow")
	}
}

// TestParallelKernelChunkedFrame: a decoupled frame of more than frameChunk
// triangles is built and replayed chunk by chunk, with the bytes of the
// event kernel's whole-frame replay, FIFO peaks included. The fractional
// bus ratio makes completions fractional, so a node's arrival clock (the
// ceiling of its last completion) runs ahead of its engine time and a clock
// not carried across chunks would change the bytes.
func TestParallelKernelChunkedFrame(t *testing.T) {
	s := testScene(11, frameChunk+frameChunk/2, 64)
	m := runKernelPair(t, s, Config{Procs: 16, TileSize: 8, Bus: memory.BusConfig{TexelsPerCycle: 1.5}})
	if m.parallelFrames == 0 {
		t.Error("parallel kernel never engaged")
	}
}

// TestParallelKernelFlightRecorderFallsBack: the flight recorder's bucket
// grid is shared across nodes, so recorded runs must stay on the event
// kernel (and recordings therefore stay deterministic).
func TestParallelKernelFlightRecorderFallsBack(t *testing.T) {
	s := testScene(13, 40, 96)
	m, err := NewMachine(s, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.SetNodeParallelism(4)
	m.EnableFlightRecorder(64)
	m.Run()
	if m.parallelFrames != 0 {
		t.Error("parallel kernel engaged with a flight recorder attached")
	}
}

// TestParallelKernelEmptyFrame: a frame with no routable triangles still
// reports zeroed per-node FIFO peaks on both kernels.
func TestParallelKernelEmptyFrame(t *testing.T) {
	s := testScene(1, 10, 64)
	s.Triangles = nil
	m := runKernelPair(t, s, Config{Procs: 4})
	if m.parallelFrames == 0 {
		t.Error("parallel kernel never engaged")
	}
}

// TestSetNodeParallelismDefaults pins the knob semantics: <=0 restores the
// GOMAXPROCS default, and every setting — one worker included — is only a
// worker bound, never a kernel choice.
func TestSetNodeParallelismDefaults(t *testing.T) {
	s := testScene(2, 10, 64)
	m, err := NewMachine(s, Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.SetNodeParallelism(-3)
	if got := m.nodeParallelism(); got < 1 {
		t.Errorf("nodeParallelism() = %d after reset", got)
	}
	for i, n := range []int{1, 8} {
		m.SetNodeParallelism(n)
		m.Run()
		if m.parallelFrames != i+1 {
			t.Errorf("node parallelism %d: frame not on the parallel kernel", n)
		}
	}
}

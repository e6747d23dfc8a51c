package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/trace"
)

// BenchmarkProcessPrecomputed times the engine's per-fragment loop alone on
// node 0's recorded work of a quake frame at scale 0.25 on 64 block-8
// nodes (one of perfbench sweep_dense's raster classes), with the paper's
// 16 KB L1 on a 1 texel/cycle bus: live probes a SetAssoc, recorded replays
// the node's miss events.
func BenchmarkProcessPrecomputed(b *testing.B) {
	ctx := context.Background()
	s := benchSceneFor(b, "quake", 0.25)
	a, err := BuildRasterArtifact(ctx, []*trace.Scene{s}, 64, distrib.BlockKind, 8, ArtifactOpts{})
	if err != nil {
		b.Fatal(err)
	}
	recs, err := RecordMisses(ctx, a, []*trace.Scene{s}, []cache.Config{cache.PaperConfig()}, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := recs[0]
	f := a.Frames[0]
	var works []*engine.PrecomputedWork
	frags := 0
	for _, ref := range f.perNode[0] {
		w := &f.Tris[ref.tri].Dests[ref.dest].Work
		works = append(works, w)
		frags += w.Frags()
	}
	bus := memory.BusConfig{TexelsPerCycle: 1}
	for _, c := range []struct {
		name string
		e    *engine.Engine
	}{
		{"live", engine.New(0, engine.DefaultSetupCycles, cache.New(cache.PaperConfig()), memory.NewBus(bus))},
		{"recorded", engine.NewReplaying(0, engine.DefaultSetupCycles, engine.DefaultPrefetchDepth, &rec.nodes[0], memory.NewBus(bus))},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := c.e
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				arrival := 0.0
				for _, w := range works {
					arrival = math.Ceil(e.ProcessPrecomputed(arrival, w))
				}
			}
			b.ReportMetric(float64(frags)*float64(b.N)/b.Elapsed().Seconds(), "frags/s")
		})
	}
}

// BenchmarkRecordMisses times the recording pass on the quake class of
// BenchmarkProcessPrecomputed (scale 0.25, 64 block-8 nodes, a spans-only
// artifact) for the 8 geometries of perfbench sweep_dense, 4-way 1–128 KB,
// on one worker: per-geometry records each geometry alone, a chain of one,
// and one-pass records all 8 in one call, which reads each node's work once
// and walks the geometries as one inclusion chain.
func BenchmarkRecordMisses(b *testing.B) {
	ctx := context.Background()
	s := benchSceneFor(b, "quake", 0.25)
	frames := []*trace.Scene{s}
	a, err := BuildRasterArtifact(ctx, frames, 64, distrib.BlockKind, 8, ArtifactOpts{SpansOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	var geoms []cache.Config
	for kb := 1; kb <= 128; kb *= 2 {
		geoms = append(geoms, cache.Config{SizeBytes: kb << 10, Ways: 4, LineBytes: 64})
	}
	b.Run("per-geometry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range geoms {
				if _, err := RecordMisses(ctx, a, frames, []cache.Config{g}, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RecordMisses(ctx, a, frames, geoms, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

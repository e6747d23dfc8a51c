package cache_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/scene"
	"repro/internal/texture"
	"repro/internal/trace"
)

// sceneFootprints returns node 0's recorded footprint stream for a quake
// frame at quarter scale on 4 block-interleaved nodes: one footprint per
// run-length-encoded run, in submission order — exactly the probes replay
// makes. Unlike uniform random addresses, the stream has the same-line
// texels and reuse of real trilinear filtering.
func sceneFootprints(b *testing.B) [][8]texture.Addr {
	b.Helper()
	bm, err := scene.ByName("quake", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	s, err := bm.Build()
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.BuildRasterArtifact(context.Background(), []*trace.Scene{s}, 4, distrib.BlockKind, 16, core.ArtifactOpts{})
	if err != nil {
		b.Fatal(err)
	}
	var foots [][8]texture.Addr
	for _, t := range a.Frames[0].Tris {
		for _, d := range t.Dests {
			if d.Node != 0 {
				continue
			}
			for r := range d.Work.Reps {
				foots = append(foots, [8]texture.Addr(d.Work.Addrs[r*8:r*8+8]))
			}
		}
	}
	return foots
}

// BenchmarkSetAssocAccessFootprint times one paper-geometry cache probe per
// footprint, against the same stream probed with 8 Access calls.
func BenchmarkSetAssocAccessFootprint(b *testing.B) {
	foots := sceneFootprints(b)
	b.Run("footprint", func(b *testing.B) {
		c := cache.New(cache.PaperConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessFootprint(&foots[i%len(foots)])
		}
	})
	b.Run("8xAccess", func(b *testing.B) {
		c := cache.New(cache.PaperConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range &foots[i%len(foots)] {
				c.Access(a)
			}
		}
	})
}

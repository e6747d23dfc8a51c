// The raster artifact: the frame path's geometry half — rasterization and
// span demultiplexing, plus optionally per-fragment texel address generation
// — as a first-class value. It is the only thing the machine's rasterizer
// produces: a machine with no artifact attached builds a spans-only artifact
// for each frame and replays it (kernel.go). Those stages depend only on
// (scene, resolution, distribution); the cache model, bus bandwidth and
// buffer depth they feed do not change a single span or address. An
// artifact with recorded footprints is built once per (scene, resolution,
// distribution) and replayed into any number of machine configurations,
// which is what makes dense cache-axis sweeps cheap (internal/sweep's
// planner) and, being serializable (artifactio.go), lets cluster peers ship
// the geometry work instead of redoing it.
//
// Equivalence contract: replaying an artifact produces the same results
// (cycles, counters, cache statistics, FIFO peaks) whether it was built for
// the frame or attached, spans-only or with footprints, on either kernel.
// The one builder (buildTriangle) produces every span, and the recorded
// footprints come from engine.TriangleWork.Record, the address generation
// of engine.ProcessTriangle.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/raster"
	"repro/internal/texture"
	"repro/internal/trace"
)

// RasterArtifact is the reusable output of rasterizing a frame sequence on
// one (scene, resolution, distribution): per frame, every source triangle in
// submission order, each carrying its per-node owned segments and, unless
// spans-only, run-length-encoded trilinear footprint streams. Build it with
// BuildRasterArtifact, attach it with Machine.SetRasterArtifact, and ship it
// with Encode/DecodeRasterArtifact.
type RasterArtifact struct {
	// Scene is the name of the scene (frame 0) the artifact was built from.
	Scene string
	// Screen is the rendered screen rectangle — the resolution.
	Screen geom.Rect
	// Procs, Dist and TileSize identify the distribution the spans were
	// demultiplexed for; an artifact replays only on machines that match.
	Procs    int
	Dist     distrib.Kind
	TileSize int
	// Textures is the texture table of every frame (frames of a sequence
	// must share it, as Machine.RunSequenceContext requires).
	Textures []trace.TexSize
	// HasFootprints reports whether texel address streams were recorded.
	// Replaying a spans-only artifact (ArtifactOpts.SpansOnly) regenerates
	// them from the source triangles, as a machine without an artifact does.
	HasFootprints bool
	// Frames holds one entry per frame, in sequence order.
	Frames []*FrameArtifact
}

// FrameArtifact is one frame's triangles.
type FrameArtifact struct {
	// Name is the source frame's scene name.
	Name string
	// Tris holds one entry per source triangle, in submission order, so an
	// entry's index is its source triangle's. An off-screen triangle routes
	// nowhere and has no destinations.
	Tris []ArtifactTriangle
	// counts is each node's routed triangle count — its FIFO occupancy at
	// time zero in the event kernel. Derived by finalize.
	counts []int
	// perNode indexes each node's work in submission order. Derived by
	// finalize; shared replays only read it.
	perNode [][]destRef
}

// ArtifactTriangle is one triangle: its destinations in route order.
type ArtifactTriangle struct {
	Dests []ArtifactDest
}

// ArtifactDest is one triangle's contribution to one node.
type ArtifactDest struct {
	Node int
	Work engine.PrecomputedWork
}

// destRef names one (triangle, destination) work item of a frame:
// Tris[tri].Dests[dest].
type destRef struct{ tri, dest int32 }

// finalize derives the frame's per-node counts and index. Called by the
// builder and the decoder; the derived state is read-only afterwards, so a
// finalized artifact is safe for concurrent replays.
func (f *FrameArtifact) finalize(procs int) {
	f.counts = make([]int, procs)
	for i := range f.Tris {
		for _, d := range f.Tris[i].Dests {
			f.counts[d.Node]++
		}
	}
	// One backing array holds every node's index.
	refs := 0
	for _, n := range f.counts {
		refs += n
	}
	backing := make([]destRef, 0, refs)
	f.perNode = make([][]destRef, procs)
	for p, n := range f.counts {
		f.perNode[p] = backing[len(backing) : len(backing) : len(backing)+n]
		backing = backing[:len(backing)+n]
	}
	for i := range f.Tris {
		for j, d := range f.Tris[i].Dests {
			f.perNode[d.Node] = append(f.perNode[d.Node], destRef{int32(i), int32(j)})
		}
	}
}

// ArtifactOpts tunes how BuildRasterArtifact works, never what it produces:
// the artifact contents are byte-identical at every setting (SpansOnly only
// omits the footprint streams, it does not change the spans).
type ArtifactOpts struct {
	// Workers bounds the build's parallelism (<=0 = GOMAXPROCS).
	Workers int
	// SpansOnly skips the texel address streams. Building is then several
	// times cheaper, and replay generates the addresses inline; a
	// pure-scan machine (perfect cache, infinite bus) never needs them.
	SpansOnly bool
}

// BuildRasterArtifact rasterizes a frame sequence once for the given
// distribution and returns the replayable artifact. The frames must satisfy
// the same constraints Machine.RunSequenceContext enforces (shared texture
// table) and additionally share one screen rectangle. tileSize 0 means the
// Config default (16).
func BuildRasterArtifact(ctx context.Context, frames []*trace.Scene, procs int, kind distrib.Kind, tileSize int, opts ArtifactOpts) (*RasterArtifact, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: artifact needs at least one frame")
	}
	if tileSize == 0 {
		tileSize = 16
	}
	first := frames[0]
	for i, f := range frames {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("core: frame %d: %w", i, err)
		}
		if f.Screen != first.Screen {
			return nil, fmt.Errorf("core: frame %d screen %v differs from frame 0's %v",
				i, f.Screen, first.Screen)
		}
		if len(f.Textures) != len(first.Textures) {
			return nil, fmt.Errorf("core: frame %d has %d textures, frame 0 has %d",
				i, len(f.Textures), len(first.Textures))
		}
		for j, ts := range f.Textures {
			if ts != first.Textures[j] {
				return nil, fmt.Errorf("core: frame %d texture %d is %v, frame 0 has %v",
					i, j, ts, first.Textures[j])
			}
		}
	}
	d, err := distrib.New(kind, first.Screen, procs, tileSize)
	if err != nil {
		return nil, err
	}
	mgr, err := first.BuildTextures()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &RasterArtifact{
		Scene:         first.Name,
		Screen:        first.Screen,
		Procs:         procs,
		Dist:          kind,
		TileSize:      tileSize,
		Textures:      append([]trace.TexSize(nil), first.Textures...),
		HasFootprints: !opts.SpansOnly,
	}
	rast := raster.New(first.Screen)
	scratch := buildScratch(workers)
	for _, f := range frames {
		fa, err := buildFrameArtifact(ctx, f, d, rast, mgr, workers, scratch, !opts.SpansOnly)
		if err != nil {
			return nil, err
		}
		a.Frames = append(a.Frames, fa)
	}
	return a, nil
}

// buildScratch returns empty scratch for builds on the given number of
// workers: one slot per build chunk, four chunks per worker, since
// finer-than-worker chunks smooth out uneven per-triangle cost.
func buildScratch(workers int) []*artifactScratch {
	return make([]*artifactScratch, workers*4)
}

// buildFrameArtifact rasterizes one frame across worker goroutines and
// finalizes it. Each chunk writes a disjoint index range of the triangle
// slice, so every span and address is independent of scheduling. Chunk c
// uses scratch[c], made on first use, so successive builds share buffers.
func buildFrameArtifact(ctx context.Context, f *trace.Scene, d distrib.Distribution, rast *raster.Rasterizer, mgr *texture.Manager, workers int, scratch []*artifactScratch, footprints bool) (*FrameArtifact, error) {
	n := len(f.Triangles)
	fa := &FrameArtifact{Name: f.Name, Tris: make([]ArtifactTriangle, n)}
	nChunks := min(len(scratch), n)
	procs := d.NumProcs()
	err := par.ForEach(ctx, workers, nChunks, func(c int) error {
		if scratch[c] == nil {
			scratch[c] = newArtifactScratch(procs)
		}
		w := scratch[c]
		lo, hi := c*n/nChunks, (c+1)*n/nChunks
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxPollTriangles == 0 && i > lo {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fa.Tris[i] = buildTriangle(w, d, rast, mgr, f, i, footprints)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fa.finalize(procs)
	return fa, nil
}

// artifactScratch is one build worker's reusable demux buffers.
type artifactScratch struct {
	route   []int
	spanBuf []raster.Span
	spans   [][]raster.Span // per-proc owned segments of one triangle
	// emit appends one owned segment of row y to its node's spans. Built
	// once per worker: a closure passed per span through the Distribution
	// interface would be a heap allocation per span.
	y    int
	emit func(proc, x0, x1 int)
	// rec collects one triangle's footprint streams, every destination's
	// runs in turn, before they are copied out at their exact size; runEnds
	// holds each destination's end in rec.Reps.
	rec     engine.PrecomputedWork
	runEnds []int
}

func newArtifactScratch(procs int) *artifactScratch {
	w := &artifactScratch{
		route: make([]int, 0, procs),
		spans: make([][]raster.Span, procs),
	}
	w.emit = func(proc, x0, x1 int) {
		w.spans[proc] = append(w.spans[proc], raster.Span{Y: w.y, X0: x0, X1: x1})
	}
	return w
}

// buildTriangle rasterizes triangle i once, demultiplexes its spans per
// routed node and, when footprints is set, records each destination's texel
// address stream. It is the one place spans are demultiplexed.
func buildTriangle(w *artifactScratch, d distrib.Distribution, rast *raster.Rasterizer, mgr *texture.Manager, f *trace.Scene, i int, footprints bool) ArtifactTriangle {
	t := &f.Triangles[i]
	dests := d.Route(t.BBox(), w.route[:0])
	w.route = dests[:0]
	if len(dests) == 0 {
		return ArtifactTriangle{}
	}
	for _, p := range dests {
		w.spans[p] = w.spans[p][:0]
	}
	w.spanBuf = rast.AppendSpans(*t, f.Screen, w.spanBuf[:0])
	for _, sp := range w.spanBuf {
		w.y = sp.Y
		d.ForEachOwnedSegment(sp.Y, sp.X0, sp.X1, w.emit)
	}
	// One backing array holds every destination's segments for this
	// triangle, so a triangle costs one allocation however many nodes it
	// fans out to.
	total := 0
	for _, p := range dests {
		total += len(w.spans[p])
	}
	var backing []raster.Span
	if total > 0 {
		backing = make([]raster.Span, 0, total)
	}
	out := ArtifactTriangle{Dests: make([]ArtifactDest, 0, len(dests))}
	w.rec.Addrs, w.rec.Reps, w.runEnds = w.rec.Addrs[:0], w.rec.Reps[:0], w.runEnds[:0]
	for _, p := range dests {
		segs := w.spans[p]
		var owned []raster.Span
		if len(segs) > 0 {
			start := len(backing)
			backing = append(backing, segs...)
			owned = backing[start:len(backing):len(backing)]
		}
		if footprints && len(owned) > 0 {
			tw := triangleWork(mgr, t, owned)
			tw.Record(&w.rec)
		}
		w.runEnds = append(w.runEnds, len(w.rec.Reps))
		out.Dests = append(out.Dests, ArtifactDest{Node: p, Work: engine.PrecomputedWork{Segments: owned}})
	}
	if len(w.rec.Reps) > 0 {
		// Like the spans, all destinations' streams share one exact-size
		// backing array per triangle: no growth slack stays live.
		addrs, reps := slices.Clone(w.rec.Addrs), slices.Clone(w.rec.Reps)
		r0 := 0
		for i, r1 := range w.runEnds {
			if r1 > r0 {
				out.Dests[i].Work.Addrs = addrs[8*r0 : 8*r1 : 8*r1]
				out.Dests[i].Work.Reps = reps[r0:r1:r1]
			}
			r0 = r1
		}
	}
	return out
}

// triangleWork is triangle t's work for one node owning segs.
func triangleWork(mgr *texture.Manager, t *geom.Triangle, segs []raster.Span) engine.TriangleWork {
	return engine.TriangleWork{Tex: mgr.Texture(t.TexID), Map: t.Tex, LOD: t.Tex.LOD(), Segments: segs}
}

// SetRasterArtifact attaches a prebuilt raster artifact: subsequent runs
// replay it instead of rasterizing, with byte-identical results. The
// artifact must match the machine's scene, screen and distribution. The
// caller must run the machine on the frames the artifact was built from —
// identity is sanity-checked per run by name, screen and triangle count.
// Pass nil to detach.
func (m *Machine) SetRasterArtifact(a *RasterArtifact) error {
	if a == nil {
		m.artifact = nil
		return nil
	}
	if a.Procs != m.cfg.Procs || a.Dist != m.cfg.Distribution || a.TileSize != m.cfg.TileSize {
		return fmt.Errorf("core: artifact is for %s%d/p%d, machine is %s",
			a.Dist, a.TileSize, a.Procs, m.cfg.Name())
	}
	if a.Screen != m.scene.Screen {
		return fmt.Errorf("core: artifact screen %v, machine screen %v", a.Screen, m.scene.Screen)
	}
	if len(a.Textures) != len(m.scene.Textures) {
		return fmt.Errorf("core: artifact has %d textures, machine %d",
			len(a.Textures), len(m.scene.Textures))
	}
	for i, ts := range a.Textures {
		if ts != m.scene.Textures[i] {
			return fmt.Errorf("core: artifact texture %d is %v, machine has %v",
				i, ts, m.scene.Textures[i])
		}
	}
	m.artifact = a
	return nil
}

// checkFrames sanity-checks that frames line up with the frames artifact a
// was built from, by count, name, triangle count and screen.
func checkFrames(a *RasterArtifact, frames []*trace.Scene) error {
	if len(frames) != len(a.Frames) {
		return fmt.Errorf("core: run has %d frames, artifact %d", len(frames), len(a.Frames))
	}
	for i, f := range frames {
		if f.Name != a.Frames[i].Name || len(f.Triangles) != len(a.Frames[i].Tris) {
			return fmt.Errorf("core: frame %d is %q (%d triangles), artifact was built from %q (%d)",
				i, f.Name, len(f.Triangles), a.Frames[i].Name, len(a.Frames[i].Tris))
		}
		if f.Screen != a.Screen {
			return fmt.Errorf("core: frame %d screen %v, artifact screen %v", i, f.Screen, a.Screen)
		}
	}
	return nil
}

// The frame kernels. Every frame replays a raster artifact (artifact.go):
// the attached one, or a spans-only artifact built for the frame. The paper's
// nodes are coupled only through full triangle FIFOs: the distributor pushes
// triangles in strict submission order and blocks while a destination FIFO
// is full. With FIFOs big enough to hold every triangle a node is routed —
// the paper's "big enough" buffer, assumed by every experiment except the §8
// buffering study — the distributor never blocks, every triangle arrives at
// simulated time zero, and the nodes are independent. So the kernel choice
// is one rule (coupled):
//
//   - decoupled replay, on nodeParallelism() workers (one included): each
//     node pipeline drains its own work list with no global event heap;
//   - the event kernel (replayEvents) only when the FIFOs can couple nodes —
//     a TriangleBuffer below DefaultTriangleBuffer, or some node routed more
//     triangles than its FIFO holds — or when a flight recorder is attached
//     (its auto-rescaling bucket grid is shared by every node and is
//     deliberately not synchronized).
//
// Equivalence contract: both kernels produce byte-identical results. With no
// back-pressure, a node's k-th triangle arrival in the event kernel is
// exactly ceil(completion of triangle k−1) (the node re-arms its step event
// at that cycle), and the engine's timing is a deterministic function of its
// own arrival sequence only; the decoupled replay uses the same arrival
// arithmetic.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/texture"
	"repro/internal/trace"
)

// SetNodeParallelism bounds how many concurrent workers the machine may use
// to rasterize a frame and to replay independent node pipelines; n <= 0
// restores the default, runtime.GOMAXPROCS(0). It does not select a kernel:
// results are byte-identical at every setting — the knob trades wall-clock
// for cores, never accuracy.
func (m *Machine) SetNodeParallelism(n int) {
	m.nodePar = n
}

// nodeParallelism resolves the configured worker bound.
func (m *Machine) nodeParallelism() int {
	if m.nodePar > 0 {
		return m.nodePar
	}
	return runtime.GOMAXPROCS(0)
}

// ctxPollTriangles is how many triangles a worker processes between context
// polls, mirroring the event kernel's cancelCheckEvents granularity.
const ctxPollTriangles = 1 << 10

// cancelCheckEvents is how many simulation events fire between context
// polls: frequent enough that cancellation lands within microseconds of real
// time, rare enough to stay invisible in profiles.
const cancelCheckEvents = 1 << 14

// frameReplay is one frame's replay input. Without recorded footprint
// streams, each work item regenerates its texel addresses inline from its
// source triangle.
type frameReplay struct {
	fa         *FrameArtifact
	src        *trace.Scene
	mgr        *texture.Manager
	footprints bool
}

// process runs work item ref on engine e, arriving at arrival, and returns
// its completion time.
func (r *frameReplay) process(e *engine.Engine, arrival float64, ref destRef) float64 {
	d := &r.fa.Tris[ref.tri].Dests[ref.dest]
	if r.footprints {
		return e.ProcessPrecomputed(arrival, &d.Work)
	}
	w := triangleWork(r.mgr, &r.src.Triangles[ref.tri], d.Work.Segments)
	return e.ProcessTriangle(arrival, &w)
}

// frameChunk is how many triangles a decoupled frame without an attached
// artifact rasterizes and replays at a time (replayDecoupled). Each chunk
// ends in a barrier across the node workers, so chunks stay large enough for
// the barrier to cost little.
const frameChunk = 1 << 13

// runFrameArtifact simulates frame fi, replaying the attached artifact's
// frame or, with none attached, a spans-only artifact built for f. A
// cancelled context abandons the frame mid-flight and leaves the machine in
// an undefined (but safely reusable-after-Reset) state.
func (m *Machine) runFrameArtifact(ctx context.Context, fi int, f *trace.Scene) error {
	r := &frameReplay{src: f, mgr: m.mgr}
	var counts []int
	if m.artifact != nil {
		r.fa, r.footprints = m.artifact.Frames[fi], m.artifact.HasFootprints
		counts = r.fa.counts
	} else {
		counts = m.routeCounts(f)
	}
	if !m.coupled(counts) {
		return m.replayDecoupled(ctx, r, counts)
	}
	if r.fa == nil {
		workers := m.nodeParallelism()
		fa, err := buildFrameArtifact(ctx, f, m.dist, m.rast, m.mgr, workers, buildScratch(workers), false)
		if err != nil {
			return err
		}
		r.fa = fa
	}
	return m.replayEvents(ctx, r)
}

// routeCounts returns each node's routed triangle count in frame f — the
// counts of a whole-frame artifact — without rasterizing.
func (m *Machine) routeCounts(f *trace.Scene) []int {
	counts := make([]int, m.cfg.Procs)
	var route []int
	for i := range f.Triangles {
		route = m.dist.Route(f.Triangles[i].BBox(), route[:0])
		for _, p := range route {
			counts[p]++
		}
	}
	return counts
}

// coupled reports whether a frame routing counts[p] triangles to node p
// needs the event kernel: the package comment's one rule.
func (m *Machine) coupled(counts []int) bool {
	if m.forceEvents || m.flight != nil || m.cfg.TriangleBuffer < DefaultTriangleBuffer {
		return true
	}
	for _, n := range counts {
		if n > m.cfg.TriangleBuffer {
			return true
		}
	}
	return false
}

// replayDecoupled simulates every node pipeline independently, with the
// event kernel's arrival arithmetic: the first pop happens at cycle 0, each
// later pop at the integer cycle the node re-arms on. counts is each node's
// routed triangle count in the frame. Without an artifact frame in r, it
// builds and replays r.src frameChunk triangles at a time, so only one
// chunk's spans are live and a frame's memory does not grow with its
// triangle count. Each node still replays its work in submission order, its
// arrival clock carried across chunks, so the bytes are those of a
// whole-frame replay.
func (m *Machine) replayDecoupled(ctx context.Context, r *frameReplay, counts []int) error {
	arrivals := make([]float64, m.cfg.Procs)
	if r.fa != nil {
		if err := m.replayNodes(ctx, r, arrivals); err != nil {
			return err
		}
	} else {
		f := r.src
		workers := m.nodeParallelism()
		scratch := buildScratch(workers)
		for lo := 0; lo < len(f.Triangles); lo += frameChunk {
			chunk := *f
			chunk.Triangles = f.Triangles[lo:min(lo+frameChunk, len(f.Triangles))]
			fa, err := buildFrameArtifact(ctx, &chunk, m.dist, m.rast, m.mgr, workers, scratch, false)
			if err != nil {
				return err
			}
			if err := m.replayNodes(ctx, &frameReplay{fa: fa, src: &chunk, mgr: m.mgr}, arrivals); err != nil {
				return err
			}
		}
	}
	m.lastFIFOPeaks = append(m.lastFIFOPeaks[:0], counts...)
	m.parallelFrames++
	return nil
}

// replayNodes replays frame r on every node pipeline in parallel.
// arrivals[p] is node p's next arrival, updated in place.
func (m *Machine) replayNodes(ctx context.Context, r *frameReplay, arrivals []float64) error {
	return par.ForEach(ctx, m.nodeParallelism(), m.cfg.Procs, func(p int) error {
		e := m.engines[p]
		arrival := arrivals[p]
		for k, ref := range r.fa.perNode[p] {
			if k%ctxPollTriangles == 0 && k > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			done := r.process(e, arrival, ref)
			arrival = float64(sim.Time(math.Ceil(done)))
		}
		arrivals[p] = arrival
		return nil
	})
}

// replayEvents is the coupled event kernel: one event per (triangle, node),
// with the distributor back-pressuring on full FIFOs.
func (m *Machine) replayEvents(ctx context.Context, r *frameReplay) error {
	s := sim.New()
	d := &eventDistributor{fa: r.fa}
	for i := 0; i < m.cfg.Procs; i++ {
		d.fifos = append(d.fifos, sim.NewFIFO[destRef](s, m.cfg.TriangleBuffer))
	}
	s.At(0, d.step)
	for i, fifo := range d.fifos {
		n := &eventNode{sim: s, engine: m.engines[i], fifo: fifo, r: r}
		s.At(0, n.step)
	}
	if err := runSim(ctx, s); err != nil {
		return err
	}
	if !d.done {
		panic(fmt.Sprintf("core: simulation deadlock: distributed %d of %d triangles",
			d.next, len(r.fa.Tris)))
	}
	m.lastFIFOPeaks = m.lastFIFOPeaks[:0]
	for _, fifo := range d.fifos {
		m.lastFIFOPeaks = append(m.lastFIFOPeaks, fifo.Peak)
	}
	return nil
}

// runSim drives an event simulation to completion, polling ctx between
// batches of cancelCheckEvents events; an uncancellable context runs the
// tight loop.
func runSim(ctx context.Context, s *sim.Simulator) error {
	if ctx.Done() == nil {
		s.Run()
		return nil
	}
	for {
		ran := false
		for i := 0; i < cancelCheckEvents; i++ {
			if !s.Step() {
				break
			}
			ran = true
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ran {
			return nil
		}
	}
}

// eventDistributor feeds the frame's work items in strict submission order
// to the routed nodes' FIFOs, blocking while a destination FIFO is full.
// Distribution is instantaneous in simulated time (ideal geometry stage and
// network), so all pushes happen at the stall-free front of the machine.
type eventDistributor struct {
	fa    *FrameArtifact
	fifos []*sim.FIFO[destRef]
	// next and dest are the next work item to push: Tris[next].Dests[dest].
	next, dest int
	done       bool
}

// step pushes work items until a FIFO back-pressures, then re-arms on that
// FIFO's space event.
func (d *eventDistributor) step(sim.Time) {
	for ; d.next < len(d.fa.Tris); d.next++ {
		dests := d.fa.Tris[d.next].Dests
		for ; d.dest < len(dests); d.dest++ {
			fifo := d.fifos[dests[d.dest].Node]
			if !fifo.TryPush(destRef{int32(d.next), int32(d.dest)}) {
				fifo.WaitSpace(d.step)
				return
			}
		}
		d.dest = 0
	}
	d.done = true
}

// eventNode is one node's consumer loop on the sim kernel.
type eventNode struct {
	sim    *sim.Simulator
	engine *engine.Engine
	fifo   *sim.FIFO[destRef]
	r      *frameReplay
}

func (n *eventNode) step(now sim.Time) {
	ref, ok := n.fifo.TryPop()
	if !ok {
		n.fifo.WaitItem(n.step)
		return
	}
	done := n.r.process(n.engine, float64(now), ref)
	n.sim.At(sim.Time(math.Ceil(done)), n.step)
}

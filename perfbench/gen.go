package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/memory"
	"repro/internal/scene"
	"repro/internal/sweep"
)

// Input generation. Every workload's inputs — the order ops are issued in
// and, for the service, which specs each client sends — come from the
// --seed flag through the generators below and nothing else, so the same
// seed always produces the same inputs. The program under test
// receives only the generated specs and configs.

// defaultSeed is the seed the result digests in digests.json were recorded
// at; the digest check runs only there.
const defaultSeed = 1

// newRNG returns the seeded generator for one named input stream, so that
// adding a stream never shifts the values another stream draws.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// frame: a cold Table 1 frame at scale 0.5 on 16 processors, block-16 or
// SLI-16, with the paper's 16 KB 4-way cache and a 1 texel/pixel bus.
const (
	frameScale = 0.5
	frameProcs = 16
	frameTile  = 16
)

// frameOp is one frame workload op.
type frameOp struct {
	Scene string
	Dist  distrib.Kind
}

func (o frameOp) label() string { return o.Scene + "/" + o.Dist.String() }

// config is the machine the op builds.
func (o frameOp) config() core.Config {
	return core.Config{
		Procs:        frameProcs,
		Distribution: o.Dist,
		TileSize:     frameTile,
		CacheKind:    core.CacheReal,
		CacheConfig:  cache.PaperConfig(),
		Bus:          memory.BusConfig{TexelsPerCycle: 1},
	}
}

// frameOps lists every (scene, distribution) pair of the frame workload:
// each round of the closed loop issues all of them once, in seeded order.
func frameOps() []frameOp {
	var ops []frameOp
	for _, name := range scene.Names() {
		for _, d := range []distrib.Kind{distrib.BlockKind, distrib.SLIKind} {
			ops = append(ops, frameOp{Scene: name, Dist: d})
		}
	}
	return ops
}

// Sweep workloads rotate over a few specs in balanced rounds. sweep_paper
// keeps to one scene, quake, whose block and SLI sweeps take the same host
// time, so its op latencies form one cluster; sweep_dense rotates three
// scenes, an odd count, so its median lands inside the middle scene's
// cluster whatever the seed (see README.md).
var (
	paperScenes = []string{"quake"}
	denseScenes = []string{"quake", "teapot.full", "blowout775"}
)

// sweepPaperSpecs returns the sweep_paper op set: texsweep's default axes
// in their default order (procs 1,4,16,64 × sizes 4..64) at scale 0.5 with
// a real cache and a 1 texel/pixel bus, one spec per (scene, distribution).
// The seed orders the specs within each round. The axis order stays fixed:
// it decides which configurations share the two workers, and with them the
// sweep's makespan and peak heap.
func sweepPaperSpecs() []sweep.Spec {
	var specs []sweep.Spec
	for _, name := range paperScenes {
		for _, d := range []string{"block", "sli"} {
			specs = append(specs, sweep.Spec{Scene: name, Scale: 0.5, Dist: d, Bus: 1, Cache: "real"})
		}
	}
	return specs
}

// sweepDenseSpecs returns the sweep_dense op set: per scene, 64 procs,
// block-8 at scale 0.25 over caches 1..128 KB × buses 0.25..2 — 32 points
// and 32 baselines in 2 raster classes. The seed orders the specs within
// each round; the axis order stays fixed for the reason sweepPaperSpecs
// gives.
func sweepDenseSpecs() []sweep.Spec {
	var specs []sweep.Spec
	for _, name := range denseScenes {
		specs = append(specs, sweep.Spec{
			Scene: name, Scale: 0.25, Dist: "block",
			Procs: []int{64}, Sizes: []int{8},
			Caches: []int{1, 2, 4, 8, 16, 32, 64, 128},
			Buses:  []float64{0.25, 0.5, 1, 2},
			Cache:  "real",
		})
	}
	return specs
}

// specLabel names a sweep spec for reports and the digest file.
func specLabel(s sweep.Spec) string {
	if len(s.Procs) == 1 && len(s.Sizes) == 1 && len(s.Caches) == 0 {
		return fmt.Sprintf("%s/%s/p%d/s%d/bus%g", s.Scene, s.Dist, s.Procs[0], s.Sizes[0], s.Bus)
	}
	return s.Scene + "/" + s.Dist
}

// serviceClients is the number of closed-loop HTTP clients.
const serviceClients = 2

// servicePool returns each client's sequence of new single-point sweep
// specs. The pool is every Table 1 scene at scale 0.25 × block/SLI × procs
// 4,16,64 × sizes 8,16,32 × buses 0.5,1,2. It is issued in rounds: each
// round holds one spec of every (scene, distribution) stratum, strata in
// seeded order and each stratum's specs in seeded order, so every prefix of
// the sequence has the same scene mix whatever the seed. Specs are dealt
// alternately, so no two clients ever submit the same new spec.
func servicePool(seed uint64) [serviceClients][]sweep.Spec {
	rng := newRNG(seed, "service")
	var strata [][]sweep.Spec
	for _, name := range scene.Names() {
		for _, d := range []string{"block", "sli"} {
			var st []sweep.Spec
			for _, p := range []int{4, 16, 64} {
				for _, w := range []int{8, 16, 32} {
					for _, bus := range []float64{0.5, 1, 2} {
						st = append(st, sweep.Spec{
							Scene: name, Scale: 0.25, Dist: d,
							Procs: []int{p}, Sizes: []int{w},
							Bus: bus, Cache: "real",
						})
					}
				}
			}
			rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
			strata = append(strata, st)
		}
	}
	var out [serviceClients][]sweep.Spec
	i := 0
	for r := range strata[0] {
		for _, k := range rng.Perm(len(strata)) {
			out[i%serviceClients] = append(out[i%serviceClients], strata[k][r])
			i++
		}
	}
	return out
}

// withBaselinePoint turns a single-point spec into the two-point sweep
// (procs 1 and P) the layer walk times: the one-processor point shares the
// baseline's raster class, so the planner has something to memoize.
func withBaselinePoint(s sweep.Spec) sweep.Spec {
	if len(s.Procs) == 1 && s.Procs[0] != 1 {
		s.Procs = []int{1, s.Procs[0]}
	}
	return s
}

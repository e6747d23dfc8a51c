package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/texture"
)

// recordAlone records w's miss events on c alone, a chain of one, appending
// them to ev.
func recordAlone(c *cache.SetAssoc, w *PrecomputedWork, ev MissEvents) MissEvents {
	outs := []MissEvents{ev}
	RecordMisses([]*cache.SetAssoc{c}, w, outs, []int{0})
	return outs[0]
}

// probeMasks returns the miss mask of every probe RecordMisses makes on a
// cache of geometry g over works, in order.
func probeMasks(g cache.Config, works []*PrecomputedWork) []uint8 {
	c := cache.New(g)
	var masks []uint8
	for _, w := range works {
		for r, reps := range w.Reps {
			if g.RepeatHits() {
				reps = 1
			}
			for range reps {
				masks = append(masks, c.AccessFootprint((*[8]texture.Addr)(w.Addrs[r*8:r*8+8])))
			}
		}
	}
	return masks
}

// checkChains records works on every geometry of geoms in one read, chain
// by chain as Chains partitions them, and fails unless each geometry's
// events equal those of recording it alone, and unless inclusion holds
// along every chain: each probe's miss mask on a geometry is a subset of
// its mask on the geometry before it.
func checkChains(t *testing.T, name string, geoms []cache.Config, works []*PrecomputedWork) {
	t.Helper()
	order, ends := Chains(geoms)
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	for i, g := range sorted {
		if g != i || len(order) != len(geoms) {
			t.Fatalf("%s: chain order %v is not a permutation of %d geometries", name, order, len(geoms))
		}
	}
	caches := make([]*cache.SetAssoc, len(order))
	for k, g := range order {
		caches[k] = cache.New(geoms[g])
	}
	outs, from := make([]MissEvents, len(order)), make([]int, len(order))
	for _, w := range works {
		lo := 0
		for _, hi := range ends {
			RecordMisses(caches[lo:hi], w, outs[lo:hi], from[lo:hi])
			lo = hi
		}
	}
	for k, g := range order {
		var alone MissEvents
		c := cache.New(geoms[g])
		for _, w := range works {
			alone = recordAlone(c, w, alone)
		}
		if !slices.Equal(outs[k], alone) {
			t.Fatalf("%s: %+v recorded in chain %v differs from recording it alone", name, geoms[g], order)
		}
	}
	lo := 0
	for _, hi := range ends {
		for k := lo + 1; k < hi; k++ {
			prev, g := geoms[order[k-1]], geoms[order[k]]
			pm, gm := probeMasks(prev, works), probeMasks(g, works)
			if len(pm) != len(gm) {
				t.Fatalf("%s: %+v follows %+v but makes %d probes to its %d", name, g, prev, len(gm), len(pm))
			}
			for i := range pm {
				if gm[i]&^pm[i] != 0 {
					t.Fatalf("%s: %+v follows %+v, but probe %d misses %08b there against %08b: not included",
						name, g, prev, i, gm[i], pm[i])
				}
			}
		}
		lo = hi
	}
}

// TestRecordMissesChainMatchesPerGeometry: recording a set of geometries in
// one read of random footprint streams yields, for every geometry, the
// events of recording it alone — for the paper's cache family at 1–128 KB,
// which forms one chain, for mixes no single chain holds (2-way, 8-way and
// 16-way, a 4-way single-set cache whose repeats do not hit, an 8-way
// single-set one whose repeats do, 32-byte lines, a duplicate geometry, more
// ways in fewer sets) and for random geometry sets.
func TestRecordMissesChainMatchesPerGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	works := randomWorks(rng, 120)
	const line = 64
	var paper []cache.Config
	for kb := 128; kb >= 1; kb /= 2 {
		paper = append(paper, cache.Config{SizeBytes: kb << 10, Ways: 4, LineBytes: line})
	}
	if _, ends := Chains(paper); len(ends) != 1 {
		t.Errorf("the 4-way 1–128 KB family splits into %d chains, want one", len(ends))
	}
	checkChains(t, "paper family", paper, works)
	mixed := []cache.Config{
		{SizeBytes: 2048, Ways: 2, LineBytes: line},
		{SizeBytes: 1024, Ways: 8, LineBytes: line},
		{SizeBytes: 4 * line, Ways: 4, LineBytes: line}, // one set, RepeatHits false
		{SizeBytes: 8 * line, Ways: 8, LineBytes: line}, // one set, RepeatHits true
		{SizeBytes: 4096, Ways: 4, LineBytes: line},
		{SizeBytes: 1024, Ways: 4, LineBytes: 32},
		{SizeBytes: 8192, Ways: 16, LineBytes: line},
		{SizeBytes: 2048, Ways: 4, LineBytes: line},
		{SizeBytes: 16384, Ways: 4, LineBytes: line},
		{SizeBytes: 4096, Ways: 4, LineBytes: line}, // duplicate
	}
	checkChains(t, "mixed", mixed, works)
	// Fewer sets than the smaller geometry: 8 sets of 8 or 16 ways may not
	// follow 4-way 4 KB's 16 sets, although they have more ways.
	merging := []cache.Config{
		{SizeBytes: 4096, Ways: 4, LineBytes: line},
		{SizeBytes: 4096, Ways: 8, LineBytes: line},
		{SizeBytes: 8192, Ways: 16, LineBytes: line},
	}
	if _, ends := Chains(merging); len(ends) != 2 {
		t.Errorf("set-merging geometries form %d chains, want 2", len(ends))
	}
	checkChains(t, "set-merging", merging, works)
	for round := 0; round < 8; round++ {
		var geoms []cache.Config
		for range 2 + rng.Intn(6) {
			ways, sets := 1<<rng.Intn(5), 1<<rng.Intn(7)
			lb := []int{32, 64}[rng.Intn(2)]
			geoms = append(geoms, cache.Config{SizeBytes: ways * sets * lb, Ways: ways, LineBytes: lb})
		}
		checkChains(t, fmt.Sprintf("random set %d", round), geoms, works)
	}
}

// FuzzRecordMissesChain: for any two geometries and footprint stream,
// recording both in one read changes no event of either, and whenever one
// follows the other in a chain, inclusion holds probe by probe. A geometry
// byte picks ways (bits 0–2), sets (3–5) and the line size (6–7); the
// stream is 17-byte records, 8 addresses of 2 bytes scaled to a texel and
// a repeat count, 4 runs to a work item. Seeds are in
// testdata/fuzz/FuzzRecordMissesChain.
func FuzzRecordMissesChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, geomA, geomB uint8, data []byte) {
		geom := func(b uint8) cache.Config {
			ways, sets, lb := 1<<(b&7%5), 1<<(b>>3&7), 16<<(b>>6)
			return cache.Config{SizeBytes: ways * sets * lb, Ways: ways, LineBytes: lb}
		}
		var works []*PrecomputedWork
		for ; len(data) >= 17; data = data[17:] {
			if len(works) == 0 || len(works[len(works)-1].Reps) == 4 {
				works = append(works, &PrecomputedWork{})
			}
			w := works[len(works)-1]
			for j := 0; j < 8; j++ {
				w.Addrs = append(w.Addrs, texture.Addr(binary.LittleEndian.Uint16(data[2*j:]))*texture.TexelBytes)
			}
			w.Reps = append(w.Reps, int32(data[16]%4)+1)
		}
		checkChains(t, "fuzz", []cache.Config{geom(geomA), geom(geomB)}, works)
	})
}

package cache

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/texture"
)

// accessEach is the reference for AccessFootprint: 8 sequential Access
// calls, folded into a miss mask.
func accessEach(c *SetAssoc, foot *[8]texture.Addr) (missed uint8) {
	for i, a := range foot {
		if !c.Access(a) {
			missed |= 1 << i
		}
	}
	return missed
}

// checkFootprints drives a cache of geometry cfg with AccessFootprint and a
// twin with accessEach, and fails on the first footprint after which the miss
// mask, the counters or any set's tag order differ.
func checkFootprints(t *testing.T, name string, cfg Config, foots [][8]texture.Addr) {
	t.Helper()
	c, twin := New(cfg), New(cfg)
	for i := range foots {
		got, want := c.AccessFootprint(&foots[i]), accessEach(twin, &foots[i])
		if got != want || c.Stats() != twin.Stats() || !slices.Equal(c.tags, twin.tags) {
			t.Fatalf("%s %+v footprint %d %v: mask %08b stats %+v, sequential Access mask %08b stats %+v",
				name, cfg, i, foots[i], got, c.Stats(), want, twin.Stats())
		}
	}
}

// footprintStreams returns named footprint streams covering AccessFootprint's
// cases for a cache with the given set count: footprints inside one line,
// footprints whose lines all collide in one set, random nearby texels, and
// trilinear footprints of small wrapped textures.
func footprintStreams(sets int) map[string][][8]texture.Addr {
	rng := rand.New(rand.NewSource(int64(sets)))
	const n = 3000
	streams := map[string][][8]texture.Addr{}
	for i := 0; i < n; i++ {
		var same, collide, near [8]texture.Addr
		line := texture.Addr(rng.Intn(64)) * texture.LineBytes
		for j := range same {
			same[j] = line + texture.Addr(rng.Intn(texture.LineTexels))*texture.TexelBytes
			// Lines a whole cache-height apart share a set; a few distinct
			// tags overflow every associativity under test but 16.
			collide[j] = texture.Addr(rng.Intn(6)*sets*texture.LineBytes + rng.Intn(texture.LineBytes))
			near[j] = texture.Addr(rng.Intn(1 << 14))
		}
		streams["same-line"] = append(streams["same-line"], same)
		streams["set-colliding"] = append(streams["set-colliding"], collide)
		streams["random"] = append(streams["random"], near)
	}
	mgr := texture.NewManager()
	texs := []*texture.Texture{mgr.MustAdd(1, 1), mgr.MustAdd(8, 2), mgr.MustAdd(4, 32), mgr.MustAdd(64, 64)}
	for i := 0; i < n; i++ {
		tex := texs[rng.Intn(len(texs))]
		var foot [8]texture.Addr
		u, v := rng.Float64()*400-200, rng.Float64()*400-200
		tex.TrilinearFootprint(u, v, rng.Float64()*8-1, &foot)
		streams["wrapped-texture"] = append(streams["wrapped-texture"], foot)
	}
	return streams
}

// TestAccessFootprintMatchesAccess: one footprint probe leaves exactly the
// misses, counters and replacement state of 8 sequential Access calls, at
// every associativity (the 4-way fixed path and the general one), on a
// single-set cache, and for the perfect and cacheless models; and the mask
// drives an L2 behind the L1 exactly as per-address probing would.
func TestAccessFootprintMatchesAccess(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, sets := range []int{1, 4, 64} {
			cfg := Config{SizeBytes: sets * ways * texture.LineBytes, Ways: ways, LineBytes: texture.LineBytes}
			for name, foots := range footprintStreams(sets) {
				checkFootprints(t, name, cfg, foots)
			}
		}
	}

	foots := footprintStreams(64)["wrapped-texture"]
	p, n := NewPerfect(), NewNone()
	for i := range foots {
		if p.AccessFootprint(&foots[i]) != 0 || n.AccessFootprint(&foots[i]) != 0xFF {
			t.Fatal("perfect cache missed or cacheless model hit")
		}
	}
	if want := uint64(8 * len(foots)); p.Stats() != (Stats{Accesses: want}) || n.Stats() != (Stats{Accesses: want, Misses: want}) {
		t.Errorf("stats: perfect %+v, none %+v after %d footprints", p.Stats(), n.Stats(), len(foots))
	}

	// The engine probes its L2 with the L1 misses of the mask, in footprint
	// order; the reference probes the L2 on each per-address L1 miss.
	l1cfg := Config{SizeBytes: 1024, Ways: 4, LineBytes: texture.LineBytes}
	l2cfg := Config{SizeBytes: 4096, Ways: 8, LineBytes: texture.LineBytes}
	for _, l1 := range []Model{NewNone(), New(l1cfg)} {
		twinL1 := New(l1cfg)
		l2, twinL2 := New(l2cfg), New(l2cfg)
		for i := range foots {
			for m := l1.AccessFootprint(&foots[i]); m != 0; m &= m - 1 {
				l2.Access(foots[i][bits.TrailingZeros8(m)])
			}
			for _, a := range foots[i] {
				if _, none := l1.(*None); none || !twinL1.Access(a) {
					twinL2.Access(a)
				}
			}
		}
		if l2.Stats() != twinL2.Stats() || !slices.Equal(l2.tags, twinL2.tags) {
			t.Errorf("L2 behind %T: stats %+v, per-address reference %+v", l1, l2.Stats(), twinL2.Stats())
		}
	}
}

// FuzzAccessFootprint: for any geometry and address stream, AccessFootprint
// matches 8 sequential Access calls. (Replay of recorded misses is checked
// against a live cache in internal/engine, TestMissEventsMatchLiveProbe.)
// Each address is 2 bytes scaled to a
// texel, so streams revisit lines and collide in sets often. Seeds are in
// testdata/fuzz/FuzzAccessFootprint.
func FuzzAccessFootprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, waysLog, setsLog uint8, data []byte) {
		ways, sets := 1<<(waysLog%5), 1<<(setsLog%7)
		cfg := Config{SizeBytes: ways * sets * texture.LineBytes, Ways: ways, LineBytes: texture.LineBytes}
		var foots [][8]texture.Addr
		for ; len(data) >= 16; data = data[16:] {
			var foot [8]texture.Addr
			for j := range foot {
				foot[j] = texture.Addr(binary.LittleEndian.Uint16(data[2*j:])) * texture.TexelBytes
			}
			foots = append(foots, foot)
		}
		checkFootprints(t, "fuzz", cfg, foots)
	})
}

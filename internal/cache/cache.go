// Package cache simulates the on-chip texture cache of one node. The paper
// uses the Hakura–Gupta configuration unchanged: 16 KB, 4-way set
// associative, 64-byte lines holding a 4×4 texel block, LRU replacement.
//
// The cache is modelled functionally (hit or miss per access); timing is the
// memory bus's job. A perfect-cache model (always hits — the paper's
// "perfect cache" that ignores even compulsory misses) and a cacheless model
// are provided for the load-balancing-only experiments and the ratio-8
// baseline respectively.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/texture"
)

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 for an idle cache).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Model is the cache contract the engine drives: one call per fragment,
// looking up its 8-texel trilinear footprint and reporting which texels were
// not already resident. A miss implies the containing line is fetched (and
// inserted, for a real cache).
type Model interface {
	// AccessFootprint looks up the 8 texel addresses of foot in order,
	// updating replacement state exactly as 8 sequential single-address
	// lookups would, and returns a mask whose bit i is set when foot[i]
	// missed.
	AccessFootprint(foot *[8]texture.Addr) (missed uint8)
	// RepeatHits reports whether re-accessing a trilinear footprint (at most
	// 8 addresses, at most 2 distinct lines per set and mip level) that the
	// immediately preceding accesses fully touched is guaranteed to hit on
	// every address AND to leave the replacement state exactly as a real
	// re-access would. When true, a caller replaying a run of fragments with
	// identical footprints may account the repeats via AddHits instead of
	// calling AccessFootprint — the engine's precomputed-replay fast path.
	RepeatHits() bool
	// AddHits accounts n accesses that are known to hit without looking
	// them up. Only meaningful when RepeatHits reports true.
	AddHits(n uint64)
	// Stats returns the accumulated counters.
	Stats() Stats
	// Reset clears contents and counters.
	Reset()
}

// Config describes a set-associative cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	LineBytes int // line size (must match the texture blocking: 64)
}

// PaperConfig is the 16 KB 4-way 64 B-line configuration used throughout the
// paper's evaluation.
func PaperConfig() Config {
	return Config{SizeBytes: 16 * 1024, Ways: 4, LineBytes: texture.LineBytes}
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// RepeatHits reports whether a SetAssoc of this geometry keeps the Model
// guarantee. A trilinear footprint touches a 2×2 texel block neighborhood
// per mip level; x-adjacent blocks differ by one in line index, so with at
// least 2 sets each set receives at most 2 of a level's lines — at most 4
// lines per set across both levels. With 4 or more ways the footprint's own
// insertions evict none of its lines, so an immediate re-access hits
// everywhere and the MRU rotation reproduces the same final order. A
// single-set cache can see all 8 lines collide, so it needs 8 ways.
func (c Config) RepeatHits() bool {
	return c.Ways >= 8 || (c.Ways >= 4 && c.Sets() >= 2)
}

// SetAssoc is an LRU set-associative cache. Each set keeps its lines ordered
// most-recently-used first, so a lookup is a short scan and a hit is a small
// rotate — fast enough for the hundreds of millions of accesses a full-frame
// simulation performs.
type SetAssoc struct {
	cfg      Config
	setMask  uint32
	lineBits uint
	// tags[set*Ways : (set+1)*Ways], MRU first. The sentinel invalidTag marks
	// an empty way.
	tags  []uint32
	stats Stats
	// Pads the struct so that no cache line holds the counters of two nodes'
	// caches, which node workers on different cores update on every probe.
	_ [64]byte
}

const invalidTag = ^uint32(0)

// New returns an empty set-associative cache for cfg. It panics on an
// invalid configuration; callers validate user-supplied configs first.
func New(cfg Config) *SetAssoc {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	c := &SetAssoc{
		cfg:      cfg,
		setMask:  uint32(cfg.Sets() - 1),
		lineBits: lineBits,
		tags:     make([]uint32, cfg.Sets()*cfg.Ways),
	}
	c.Reset()
	return c
}

// Config returns the cache geometry.
func (c *SetAssoc) Config() Config { return c.cfg }

// Access looks up the texel at byte address addr, updating replacement
// state, and reports a hit: the single-address probe the engine's L2 level
// makes for each L1 miss.
func (c *SetAssoc) Access(addr texture.Addr) bool {
	c.stats.Accesses++
	if c.touch(uint32(addr) >> c.lineBits) {
		c.stats.Misses++
		return false
	}
	return true
}

// AccessFootprint implements Model with ProbeFootprint, the one probe body.
func (c *SetAssoc) AccessFootprint(foot *[8]texture.Addr) (missed uint8) {
	missed, _ = c.ProbeFootprint(foot)
	return missed
}

// ProbeFootprint is AccessFootprint that also reports still: every line it
// looked up was already its set's MRU, so the probe hit everywhere and left
// the replacement state as it was. An address in the same line as its
// predecessor is a hit that changes nothing (the predecessor just made that
// line MRU), so it skips the set lookup; a bilinear 2×2 falls inside one
// 4×4-texel line 9 times in 16. Four-way sets, the paper's geometry, are
// updated in place by fixed shifts instead of touch's copies.
func (c *SetAssoc) ProbeFootprint(foot *[8]texture.Addr) (missed uint8, still bool) {
	c.stats.Accesses += 8
	tags, setMask, lineBits, ways := c.tags, c.setMask, c.lineBits, c.cfg.Ways
	prev := ^(uint32(foot[0]) >> lineBits) // never the first line
	moved := false
	for i, a := range foot {
		line := uint32(a) >> lineBits
		if line == prev {
			continue
		}
		prev = line
		base := int(line&setMask) * ways
		if tags[base] == line {
			continue
		}
		moved = true
		if ways != 4 {
			if c.touch(line) {
				missed |= 1 << i
			}
			continue
		}
		w := (*[4]uint32)(tags[base : base+4])
		switch line {
		case w[1]:
			w[0], w[1] = line, w[0]
		case w[2]:
			w[0], w[1], w[2] = line, w[0], w[1]
		default: // a hit in the last way shifts like a miss
			if line != w[3] {
				missed |= 1 << i
			}
			w[0], w[1], w[2], w[3] = line, w[0], w[1], w[2]
		}
	}
	c.stats.Misses += uint64(bits.OnesCount8(missed))
	return missed, !moved
}

// touch makes line the MRU entry of its set and reports whether it missed
// (evicting the LRU entry).
func (c *SetAssoc) touch(line uint32) bool {
	n := c.cfg.Ways
	ways := c.tags[int(line&c.setMask)*n:][:n]
	if ways[0] == line { // fast path: repeated texel
		return false
	}
	for i := 1; i < len(ways); i++ {
		if ways[i] == line {
			copy(ways[1:i+1], ways[:i]) // hit: rotate to MRU
			ways[0] = line
			return false
		}
	}
	copy(ways[1:], ways) // miss: evict LRU (last), insert at MRU
	ways[0] = line
	return true
}

// Stats implements Model.
func (c *SetAssoc) Stats() Stats { return c.stats }

// RepeatHits implements Model with the geometry's Config.RepeatHits.
func (c *SetAssoc) RepeatHits() bool { return c.cfg.RepeatHits() }

// AddHits implements Model.
func (c *SetAssoc) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *SetAssoc) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	c.stats = Stats{}
}

// Perfect is the paper's "perfect cache": every access hits, including the
// first touch of a line (compulsory misses are ignored too). Used to isolate
// load balancing from texture locality.
type Perfect struct {
	stats Stats
}

// NewPerfect returns a perfect cache.
func NewPerfect() *Perfect { return &Perfect{} }

// AccessFootprint implements Model: always hits.
func (c *Perfect) AccessFootprint(*[8]texture.Addr) uint8 {
	c.stats.Accesses += 8
	return 0
}

// Stats implements Model.
func (c *Perfect) Stats() Stats { return c.stats }

// RepeatHits implements Model: everything hits, so repeats trivially do.
func (c *Perfect) RepeatHits() bool { return true }

// AddHits implements Model.
func (c *Perfect) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *Perfect) Reset() { c.stats = Stats{} }

// None is a cacheless node: every access misses, giving the 8-texels-per-
// fragment external bandwidth of the paper's "machine without a cache".
type None struct {
	stats Stats
}

// NewNone returns a cacheless model.
func NewNone() *None { return &None{} }

// AccessFootprint implements Model: always misses.
func (c *None) AccessFootprint(*[8]texture.Addr) uint8 {
	c.stats.Accesses += 8
	c.stats.Misses += 8
	return 0xFF
}

// Stats implements Model.
func (c *None) Stats() Stats { return c.stats }

// RepeatHits implements Model: nothing ever hits, so repeated footprints
// must be replayed as real (missing) accesses.
func (c *None) RepeatHits() bool { return false }

// AddHits implements Model. Never reached through the engine (RepeatHits is
// false); counts plain accesses for interface completeness.
func (c *None) AddHits(n uint64) { c.stats.Accesses += n }

// Reset implements Model.
func (c *None) Reset() { c.stats = Stats{} }

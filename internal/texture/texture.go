// Package texture models the texture memory layout of the simulated 3D
// accelerator: mipmapped textures stored in a blocked ("texture blocking")
// layout where each 64-byte cache line holds a 4×4 block of 4-byte texels,
// the configuration Hakura and Gupta showed to work best with a 16 KB texture
// cache and which the paper adopts unchanged.
//
// Textures must have power-of-two dimensions (the universal constraint of
// late-90s mipmapped hardware); texel coordinates wrap (GL_REPEAT), matching
// how the game scenes the paper traces tile their wall and floor textures.
package texture

import (
	"fmt"
	"math"
)

const (
	// TexelBytes is the size of one texel (32-bit RGBA).
	TexelBytes = 4
	// LineBytes is the size of one cache line / memory burst.
	LineBytes = 64
	// BlockW is the width and height in texels of one blocked tile; a 4×4
	// block of 4-byte texels fills exactly one 64-byte line.
	BlockW = 4
	// LineTexels is the number of texels in one cache line.
	LineTexels = LineBytes / TexelBytes
)

// Addr is a byte address in the simulated texture memory. Texture memory per
// node is a few megabytes, so 32 bits are ample.
type Addr = uint32

type level struct {
	base      Addr
	maskU     uint32  // width-1 (a power of two minus one), for wrap
	maskV     uint32  // height-1
	blockRowW uint32  // blocks per row
	inv       float64 // 1/2^l: scales base-level texel coordinates to this level
}

// Texture is one mipmapped texture resident in texture memory.
type Texture struct {
	id     int32
	levels []level
	bytes  uint32 // total footprint including all mip levels
}

// ID returns the texture's identifier within its Manager.
func (t *Texture) ID() int32 { return t.id }

// Width returns the base-level width in texels.
func (t *Texture) Width() int { return int(t.levels[0].maskU) + 1 }

// Height returns the base-level height in texels.
func (t *Texture) Height() int { return int(t.levels[0].maskV) + 1 }

// NumLevels returns the number of mipmap levels (down to 1×1).
func (t *Texture) NumLevels() int { return len(t.levels) }

// Bytes returns the texture's total memory footprint, all levels included.
func (t *Texture) Bytes() int { return int(t.bytes) }

// LevelSize returns the texel dimensions of mip level l.
func (t *Texture) LevelSize(l int) (w, h int) {
	lv := t.levels[l]
	return int(lv.maskU) + 1, int(lv.maskV) + 1
}

// AddressOf returns the byte address of texel (u, v) at mip level l, with
// wrap-around addressing. Addresses are stable for the lifetime of the
// Manager, so they can be fed directly to the cache simulator.
func (t *Texture) AddressOf(l int, u, v int32) Addr {
	lv := &t.levels[l]
	uu := uint32(u) & lv.maskU
	vv := uint32(v) & lv.maskV
	block := (vv/BlockW)*lv.blockRowW + uu/BlockW
	within := (vv%BlockW)*BlockW + uu%BlockW
	return lv.base + block*LineBytes + within*TexelBytes
}

// clampLevel limits l to the texture's mip chain.
func (t *Texture) clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= len(t.levels) {
		return len(t.levels) - 1
	}
	return l
}

// BilinearFootprint writes the 4 texel addresses of a bilinear sample of
// (u, v) — base-level texel coordinates — at mip level l into out.
func (t *Texture) BilinearFootprint(l int, u, v float64, out []Addr) {
	t.bilinear(t.clampLevel(l), u, v, (*[4]Addr)(out))
}

// bilinear is BilinearFootprint for an in-range level. AddressOf's address
// is a sum of a wrapped column term and a wrapped row term, so the 2×2
// neighborhood needs two of each, added four ways.
func (t *Texture) bilinear(l int, u, v float64, out *[4]Addr) {
	lv := &t.levels[l]
	// Convert base-level coordinates to this level's grid, sampling at texel
	// centers: the 2×2 neighborhood around (u/2^l - 0.5, v/2^l - 0.5).
	u0 := uint32(int32(math.Floor(u*lv.inv - 0.5)))
	v0 := uint32(int32(math.Floor(v*lv.inv - 0.5)))
	c0, c1 := lv.col(u0), lv.col(u0+1)
	r0, r1 := lv.row(v0), lv.row(v0+1)
	*out = [4]Addr{r0 + c0, r0 + c1, r1 + c0, r1 + c1}
}

// col is the column term of AddressOf for texel column u: its block's
// offset in the block row plus its offset within the block.
func (lv *level) col(u uint32) Addr {
	u &= lv.maskU
	return u/BlockW*LineBytes + u%BlockW*TexelBytes
}

// row is the row term of AddressOf for texel row v, including the level
// base: its block row's offset plus its texel row within the block.
func (lv *level) row(v uint32) Addr {
	v &= lv.maskV
	return lv.base + v/BlockW*lv.blockRowW*LineBytes + v%BlockW*BlockW*TexelBytes
}

// TrilinearFootprint writes the 8 texel addresses a trilinear filter touches
// for base-level coordinates (u, v) at level-of-detail lod: a 2×2 bilinear
// footprint in each of the two bracketing mip levels. This is the "8 texels
// per pixel" cost the paper's bandwidth analysis is built on.
func (t *Texture) TrilinearFootprint(u, v, lod float64, out *[8]Addr) {
	l0 := int(lod)
	if lod < 0 {
		l0 = 0
	}
	l0 = t.clampLevel(l0)
	l1 := t.clampLevel(l0 + 1)
	t.bilinear(l0, u, v, (*[4]Addr)(out[0:4]))
	t.bilinear(l1, u, v, (*[4]Addr)(out[4:8]))
}

// Manager allocates textures in a single flat texture-memory address space,
// mirroring the paper's private per-node texture memory that holds all the
// scene's textures.
type Manager struct {
	textures []*Texture
	next     Addr
}

// NewManager returns an empty texture memory.
func NewManager() *Manager {
	return &Manager{}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Add allocates a mipmapped texture of the given base dimensions and returns
// it. Dimensions must be powers of two.
func (m *Manager) Add(w, h int) (*Texture, error) {
	if !isPow2(w) || !isPow2(h) {
		return nil, fmt.Errorf("texture: dimensions %dx%d are not powers of two", w, h)
	}
	t := &Texture{id: int32(len(m.textures))}
	base := m.next
	lw, lh := uint32(w), uint32(h)
	for {
		blocksX := (lw + BlockW - 1) / BlockW
		blocksY := (lh + BlockW - 1) / BlockW
		t.levels = append(t.levels, level{
			base:      base,
			maskU:     lw - 1,
			maskV:     lh - 1,
			blockRowW: blocksX,
			inv:       1.0 / float64(uint32(1)<<uint(len(t.levels))),
		})
		base += blocksX * blocksY * LineBytes
		if lw == 1 && lh == 1 {
			break
		}
		if lw > 1 {
			lw >>= 1
		}
		if lh > 1 {
			lh >>= 1
		}
	}
	t.bytes = base - m.next
	m.next = base
	m.textures = append(m.textures, t)
	return t, nil
}

// MustAdd is Add for statically-known-valid dimensions.
func (m *Manager) MustAdd(w, h int) *Texture {
	t, err := m.Add(w, h)
	if err != nil {
		panic(err)
	}
	return t
}

// Texture returns the texture with the given id.
func (m *Manager) Texture(id int32) *Texture { return m.textures[id] }

// Count returns the number of allocated textures.
func (m *Manager) Count() int { return len(m.textures) }

// TotalBytes returns the total texture memory footprint.
func (m *Manager) TotalBytes() int { return int(m.next) }

// TotalTexels returns the number of texels in the address space, all levels
// of all textures included (the denominator for unique-texel bitmaps).
func (m *Manager) TotalTexels() int { return int(m.next) / TexelBytes }

package flagspec

// The compiled form of a flag at one raster size.
//
// In the activity every scenario is a different split of one picture,
// and the same picture decides whether the students colored it right.
// Compiled is that picture, computed once: a single Shape.Contains pass
// over every layer yields per-layer coverage bitmasks, the per-layer
// cell counts, the reference image (the top layer's color per cell) and
// the merged layer dependencies. Planners build their task lists from
// the masks and verification compares a painted grid against the
// reference, so a run rasterizes its flag exactly once.

import (
	"fmt"
	"math/bits"

	"flagsim/internal/geom"
	"flagsim/internal/palette"
)

// Compiled is the immutable raster form of a flag at a fixed W×H. Every
// slice its accessors return is shared and must not be modified.
type Compiled struct {
	flag  *Flag
	w, h  int
	words int // mask words per layer
	// masks holds layer l's coverage at masks[l*words:(l+1)*words]; bit
	// i is cell i in row-major order (i = y*w + x).
	masks  []uint64
	counts []int
	ref    []palette.Color
	deps   [][]int
}

// Compile validates f structurally (Flag.Validate) and compiles it at
// w×h.
func Compile(f *Flag, w, h int) (*Compiled, error) {
	if f == nil {
		return nil, fmt.Errorf("flagspec: nil flag")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("flagspec: %s: non-positive raster %dx%d", f.Name, w, h)
	}
	c := raster(f, w, h)
	c.deps = c.mergedDeps()
	return c, nil
}

// raster is the single Shape.Contains pass: masks, counts and the
// reference image, painted in layer order. It does not validate f and
// leaves deps unset.
func raster(f *Flag, w, h int) *Compiled {
	n := w * h
	words := (n + 63) / 64
	c := &Compiled{
		flag: f, w: w, h: h, words: words,
		masks:  make([]uint64, len(f.Layers)*words),
		counts: make([]int, len(f.Layers)),
		ref:    make([]palette.Color, n),
	}
	for li, l := range f.Layers {
		m := c.masks[li*words : (li+1)*words]
		count, i := 0, 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if l.Shape.Contains(geom.Pt{X: x, Y: y}, w, h) {
					m[i>>6] |= 1 << (i & 63)
					c.ref[i] = l.Color
					count++
				}
				i++
			}
		}
		c.counts[li] = count
	}
	return c
}

// overlap reports whether layers i and j share a cell.
func (c *Compiled) overlap(i, j int) bool {
	a := c.masks[i*c.words : (i+1)*c.words]
	b := c.masks[j*c.words : (j+1)*c.words]
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}

// mergedDeps returns, per layer, the sorted union of its DependsOn
// layers and the earlier layers it overlaps. It relies on Flag.Validate:
// every DependsOn name resolves to an earlier layer.
func (c *Compiled) mergedDeps() [][]int {
	layers := c.flag.Layers
	out := make([][]int, len(layers))
	flat := make([]int, 0, len(layers))
	for i, l := range layers {
		start := len(flat)
		for j := 0; j < i; j++ {
			if c.overlap(i, j) || dependsOn(l, layers[j].Name) {
				flat = append(flat, j)
			}
		}
		// Earlier rows keep pointing into the old backing array if
		// append grows it; each row is capped so none can grow into the
		// next.
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

func dependsOn(l Layer, name string) bool {
	for _, d := range l.DependsOn {
		if d == name {
			return true
		}
	}
	return false
}

// Flag returns the flag c was compiled from.
func (c *Compiled) Flag() *Flag { return c.flag }

// Size returns the raster size c was compiled at.
func (c *Compiled) Size() (w, h int) { return c.w, c.h }

// Matches reports whether c is f compiled at w×h: the same flag value
// (by identity) at the same size.
func (c *Compiled) Matches(f *Flag, w, h int) bool {
	return c != nil && c.flag == f && c.w == w && c.h == h
}

// Counts returns the number of cells each layer covers.
func (c *Compiled) Counts() []int { return c.counts }

// Total returns the sum of Counts: the number of cell-coloring tasks in
// a plan that paints every layer in full.
func (c *Compiled) Total() int {
	n := 0
	for _, k := range c.counts {
		n += k
	}
	return n
}

// Deps returns, per layer, the sorted indices of the layers that must be
// fully painted first: its DependsOn layers plus every earlier layer it
// overpaints.
func (c *Compiled) Deps() [][]int { return c.deps }

// Reference returns the reference image in row-major order: each cell
// holds the color of the topmost layer covering it, or palette.None.
func (c *Compiled) Reference() []palette.Color { return c.ref }

// Covers reports whether layer l covers cell (x, y).
func (c *Compiled) Covers(l, x, y int) bool {
	i := y*c.w + x
	return c.masks[l*c.words+i>>6]>>(i&63)&1 != 0
}

// Top returns the index of the topmost layer covering cell (x, y), or -1
// if no layer does.
func (c *Compiled) Top(x, y int) int {
	for l := len(c.counts) - 1; l >= 0; l-- {
		if c.Covers(l, x, y) {
			return l
		}
	}
	return -1
}

// CountIn returns the number of cells of layer l inside r, which must
// lie within the raster.
func (c *Compiled) CountIn(l int, r geom.Rect) int {
	if r.Min.X == 0 && r.Min.Y == 0 && r.Max.X == c.w && r.Max.Y == c.h {
		return c.counts[l]
	}
	m := c.masks[l*c.words : (l+1)*c.words]
	n := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		n += onesIn(m, y*c.w+r.Min.X, y*c.w+r.Max.X)
	}
	return n
}

// onesIn counts the set bits of m in the bit range [lo, hi).
func onesIn(m []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - ((hi - 1) & 63))
	if first == last {
		return bits.OnesCount64(m[first] & head & tail)
	}
	n := bits.OnesCount64(m[first]&head) + bits.OnesCount64(m[last]&tail)
	for k := first + 1; k < last; k++ {
		n += bits.OnesCount64(m[k])
	}
	return n
}

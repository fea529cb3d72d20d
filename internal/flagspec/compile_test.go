package flagspec_test

// Differential tests of the compiled form: every fact Compile derives
// from its single raster pass is recomputed here the slow way, cell by
// cell through Shape.Contains, and compared.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
	"flagsim/internal/palette"
)

// compileCorpus is every builtin plus a 64-flag gen:v1 corpus.
func compileCorpus(t testing.TB) []*flagspec.Flag {
	t.Helper()
	flags := flagspec.All()
	for v := uint64(0); v < 64; v++ {
		f, err := flagspec.Lookup(flaggen.Name(17, v))
		if err != nil {
			t.Fatal(err)
		}
		flags = append(flags, f)
	}
	return flags
}

// scanCovers is the per-cell reference for layer coverage.
func scanCovers(f *flagspec.Flag, w, h int) [][]bool {
	out := make([][]bool, len(f.Layers))
	for li, l := range f.Layers {
		out[li] = make([]bool, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out[li][y*w+x] = l.Shape.Contains(geom.Pt{X: x, Y: y}, w, h)
			}
		}
	}
	return out
}

// scanOverlaps lists, per layer, the earlier layers sharing a cell.
func scanOverlaps(cov [][]bool) [][]int {
	out := make([][]int, len(cov))
	for i := range cov {
		for j := 0; j < i; j++ {
			for k := range cov[i] {
				if cov[i][k] && cov[j][k] {
					out[i] = append(out[i], j)
					break
				}
			}
		}
	}
	return out
}

// scanDeps is the set-and-sort derivation the planners used before the
// compiled form: DependsOn ∪ overlaps, sorted.
func scanDeps(f *flagspec.Flag, overlaps [][]int) [][]int {
	index := make(map[string]int, len(f.Layers))
	for i, l := range f.Layers {
		index[l.Name] = i
	}
	out := make([][]int, len(f.Layers))
	for i, l := range f.Layers {
		set := make(map[int]bool)
		for _, dep := range l.DependsOn {
			set[index[dep]] = true
		}
		for _, j := range overlaps[i] {
			set[j] = true
		}
		deps := make([]int, 0, len(set))
		for d := range set {
			deps = append(deps, d)
		}
		sort.Ints(deps)
		out[i] = deps
	}
	return out
}

// checkCompiled compares c against the per-cell scans and grid.Rasterize.
func checkCompiled(f *flagspec.Flag, w, h int) error {
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return err
	}
	if gw, gh := c.Size(); gw != w || gh != h || c.Flag() != f || !c.Matches(f, w, h) {
		return fmt.Errorf("identity: got %s at %dx%d", c.Flag().Name, gw, gh)
	}
	cov := scanCovers(f, w, h)
	for li := range f.Layers {
		n := 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := cov[li][y*w+x]
				if c.Covers(li, x, y) != want {
					return fmt.Errorf("layer %d cell (%d,%d): mask %v, Contains %v", li, x, y, !want, want)
				}
				if want {
					n++
				}
			}
		}
		if got := c.Counts()[li]; got != n {
			return fmt.Errorf("layer %d: count %d, scan %d", li, got, n)
		}
		// CountIn over the slices and blocks the planners cut.
		for p := 1; p <= 5; p++ {
			for _, col := range geom.R(0, 0, w, h).SplitCols(p) {
				for q := 1; q <= 3; q++ {
					for _, r := range col.SplitRows(q) {
						want := 0
						for _, pt := range r.Cells() {
							if cov[li][pt.Y*w+pt.X] {
								want++
							}
						}
						if got := c.CountIn(li, r); got != want {
							return fmt.Errorf("layer %d: CountIn(%v) = %d, scan %d", li, r, got, want)
						}
					}
				}
			}
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			top := -1
			for li := range f.Layers {
				if cov[li][y*w+x] {
					top = li
				}
			}
			if got := c.Top(x, y); got != top {
				return fmt.Errorf("cell (%d,%d): Top %d, scan %d", x, y, got, top)
			}
		}
	}
	want, err := grid.Rasterize(f, w, h)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(c.Reference(), want.Cells()) {
		return fmt.Errorf("reference image differs from grid.Rasterize")
	}
	if n := want.WrongCells(c); n != 0 {
		return fmt.Errorf("rasterized grid has %d wrong cells against its own reference", n)
	}
	overlaps := scanOverlaps(cov)
	if got := f.Overlaps(w, h); !reflect.DeepEqual(got, overlaps) {
		return fmt.Errorf("Overlaps = %v, scan %v", got, overlaps)
	}
	if got, want := c.Deps(), scanDeps(f, overlaps); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Deps = %v, scan %v", got, want)
	}
	return nil
}

func TestCompileMatchesPerCellScan(t *testing.T) {
	for _, f := range compileCorpus(t) {
		for _, size := range [][2]int{{f.DefaultW, f.DefaultH}, {7, 5}, {41, 23}} {
			if err := checkCompiled(f, size[0], size[1]); err != nil {
				t.Errorf("%s at %dx%d: %v", f.Name, size[0], size[1], err)
			}
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	if _, err := flagspec.Compile(nil, 4, 4); err == nil {
		t.Fatal("nil flag compiled")
	}
	if _, err := flagspec.Compile(flagspec.Mauritius, 0, 4); err == nil {
		t.Fatal("zero-width raster compiled")
	}
	bad := &flagspec.Flag{Name: "bad", DefaultW: 4, DefaultH: 4,
		Layers: []flagspec.Layer{{Name: "a", Color: palette.Red}}}
	if _, err := flagspec.Compile(bad, 4, 4); err == nil {
		t.Fatal("flag without a shape compiled")
	}
}

// TestCompiledVisibleVsFull: on a layered flag the visible cells (Top)
// tile the canvas exactly once while the full layers overpaint.
func TestCompiledVisibleVsFull(t *testing.T) {
	f := flagspec.GreatBritain
	w, h := f.DefaultW, f.DefaultH
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		t.Fatal(err)
	}
	visible := make([]int, len(f.Layers))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if l := c.Top(x, y); l >= 0 {
				visible[l]++
			}
		}
	}
	fullTotal, visTotal := 0, 0
	for i, n := range c.Counts() {
		fullTotal += n
		visTotal += visible[i]
		if visible[i] > n {
			t.Fatalf("layer %d: visible %d > full %d", i, visible[i], n)
		}
	}
	if visTotal != w*h {
		t.Fatalf("visible cells %d != canvas %d", visTotal, w*h)
	}
	if fullTotal <= visTotal {
		t.Fatal("layered flag must overpaint")
	}
}

// FuzzCompile drives the differential check over generated flags at
// arbitrary raster sizes.
func FuzzCompile(f *testing.F) {
	f.Add(uint64(17), uint64(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint64(9), uint8(1), uint8(1))
	f.Add(uint64(42), uint64(63), uint8(64), uint8(63))
	f.Fuzz(func(t *testing.T, seed, variant uint64, wRaw, hRaw uint8) {
		fl, err := flaggen.Generate(seed, variant)
		if err != nil {
			t.Fatal(err)
		}
		w, h := fl.DefaultW, fl.DefaultH
		if wRaw > 0 {
			w = int(wRaw%96) + 1
		}
		if hRaw > 0 {
			h = int(hRaw%96) + 1
		}
		if err := checkCompiled(fl, w, h); err != nil {
			t.Fatalf("%s at %dx%d: %v", fl.Name, w, h, err)
		}
	})
}

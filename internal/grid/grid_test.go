package grid

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/palette"
)

func TestNewBlank(t *testing.T) {
	g := New(4, 3)
	if g.W() != 4 || g.H() != 3 {
		t.Fatalf("dims %dx%d", g.W(), g.H())
	}
	if g.PaintedCells() != 0 || g.PaintCount() != 0 {
		t.Fatal("new grid should be blank")
	}
	if g.At(geom.Pt{X: 1, Y: 1}) != palette.None {
		t.Fatal("blank cell should be None")
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) should panic")
		}
	}()
	New(0, 5)
}

func TestPaintAndOverpaint(t *testing.T) {
	g := New(3, 3)
	p := geom.Pt{X: 1, Y: 1}
	if err := g.Paint(p, palette.Red); err != nil {
		t.Fatal(err)
	}
	if err := g.Paint(p, palette.Blue); err != nil {
		t.Fatal(err)
	}
	if g.At(p) != palette.Blue {
		t.Fatal("overpaint should win")
	}
	if g.PaintCount() != 2 {
		t.Fatalf("paint count %d, want 2", g.PaintCount())
	}
	if g.PaintedCells() != 1 {
		t.Fatalf("painted cells %d, want 1", g.PaintedCells())
	}
}

func TestPaintOutOfBounds(t *testing.T) {
	g := New(2, 2)
	if err := g.Paint(geom.Pt{X: 2, Y: 0}, palette.Red); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if err := g.Paint(geom.Pt{X: -1, Y: 0}, palette.Red); err == nil {
		t.Fatal("expected out-of-bounds error for negative coordinate")
	}
	if g.PaintCount() != 0 {
		t.Fatal("failed paints must not count")
	}
}

func TestPaintInvalidColor(t *testing.T) {
	g := New(2, 2)
	if err := g.Paint(geom.Pt{}, palette.Color(99)); err == nil {
		t.Fatal("expected invalid color error")
	}
}

func TestAtOutOfBoundsIsNone(t *testing.T) {
	g := New(2, 2)
	if g.At(geom.Pt{X: 5, Y: 5}) != palette.None {
		t.Fatal("out-of-bounds read should be None")
	}
}

func TestCloneAndReset(t *testing.T) {
	g := New(2, 2)
	_ = g.Paint(geom.Pt{}, palette.Red)
	c := g.Clone()
	if !c.Equal(g) {
		t.Fatal("clone should equal original")
	}
	_ = c.Paint(geom.Pt{X: 1, Y: 1}, palette.Blue)
	if c.Equal(g) {
		t.Fatal("mutating clone must not affect original")
	}
	g.Reset()
	if g.PaintedCells() != 0 || g.PaintCount() != 0 {
		t.Fatal("reset should blank everything")
	}
}

func TestDiff(t *testing.T) {
	a, b := New(3, 2), New(3, 2)
	_ = a.Paint(geom.Pt{X: 0, Y: 0}, palette.Red)
	_ = b.Paint(geom.Pt{X: 2, Y: 1}, palette.Green)
	diff, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 2 {
		t.Fatalf("diff has %d cells, want 2", len(diff))
	}
	if _, err := a.Diff(New(2, 2)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestEqualAssumingWhitePaper(t *testing.T) {
	a, b := New(2, 1), New(2, 1)
	_ = a.Paint(geom.Pt{X: 0, Y: 0}, palette.White)
	// b leaves the cell blank: equal under the white-paper rule.
	if !a.EqualAssumingWhitePaper(b) {
		t.Fatal("white vs blank should compare equal under the paper rule")
	}
	if a.Equal(b) {
		t.Fatal("white vs blank differ under strict equality")
	}
	_ = b.Paint(geom.Pt{X: 1, Y: 0}, palette.Red)
	if a.EqualAssumingWhitePaper(b) {
		t.Fatal("red vs blank must differ")
	}
}

func TestRasterizeMauritius(t *testing.T) {
	g, err := RasterizeDefault(flagspec.Mauritius)
	if err != nil {
		t.Fatal(err)
	}
	hist := g.ColorHistogram()
	// Four equal stripes of 12×2.
	for _, c := range []palette.Color{palette.Red, palette.Blue, palette.Yellow, palette.Green} {
		if hist[c] != 24 {
			t.Fatalf("%v covers %d cells, want 24", c, hist[c])
		}
	}
	if hist[palette.None] != 0 {
		t.Fatalf("%d blank cells on a full flag", hist[palette.None])
	}
	// Stripe order top to bottom.
	if g.At(geom.Pt{X: 0, Y: 0}) != palette.Red || g.At(geom.Pt{X: 0, Y: 7}) != palette.Green {
		t.Fatal("stripe order wrong")
	}
}

func TestRasterizeJordanShape(t *testing.T) {
	f := flagspec.Jordan
	g, err := RasterizeDefault(f)
	if err != nil {
		t.Fatal(err)
	}
	// Hoist-middle is red triangle; fly edge keeps the stripes.
	if g.At(geom.Pt{X: 0, Y: 4}) != palette.Red {
		t.Fatal("triangle should cover the hoist middle")
	}
	if g.At(geom.Pt{X: 15, Y: 0}) != palette.Black {
		t.Fatal("top stripe should be black at the fly")
	}
	if g.At(geom.Pt{X: 15, Y: 8}) != palette.Green {
		t.Fatal("bottom stripe should be green at the fly")
	}
	// The star is white-on-red somewhere inside the triangle.
	if hist := g.ColorHistogram(); hist[palette.White] == 0 {
		t.Fatal("white cells missing (stripe and star)")
	}
}

func TestRasterizeGreatBritainLayerOrder(t *testing.T) {
	f := flagspec.GreatBritain
	g, err := RasterizeDefault(f)
	if err != nil {
		t.Fatal(err)
	}
	w, h := f.DefaultW, f.DefaultH
	// Center is the red cross, painted last.
	if g.At(geom.Pt{X: w / 2, Y: h / 2}) != palette.Red {
		t.Fatal("center should be red cross")
	}
	// Overpaint means paint count exceeds cell count.
	if g.PaintCount() <= w*h {
		t.Fatalf("layered flag should overpaint: %d paints for %d cells", g.PaintCount(), w*h)
	}
	hist := g.ColorHistogram()
	if hist[palette.Blue] == 0 || hist[palette.White] == 0 || hist[palette.Red] == 0 {
		t.Fatal("union flag needs blue, white, and red cells")
	}
}

func TestAllFlagsRasterizeFully(t *testing.T) {
	for _, f := range flagspec.All() {
		g, err := RasterizeDefault(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if g.ColorHistogram()[palette.None] != 0 {
			t.Fatalf("%s leaves blank cells", f.Name)
		}
	}
}

// Property: rasterizing at a scaled size preserves per-color area shares
// within a tolerance (resolution independence).
func TestRasterizeResolutionProperty(t *testing.T) {
	f := flagspec.Mauritius
	check := func(scaleRaw uint8) bool {
		scale := int(scaleRaw%4) + 1
		w, h := f.DefaultW*scale, f.DefaultH*scale
		g, err := Rasterize(f, w, h)
		if err != nil {
			return false
		}
		hist := g.ColorHistogram()
		for _, c := range f.Colors() {
			share := float64(hist[c]) / float64(w*h)
			if share < 0.24 || share > 0.26 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCellsOfColor(t *testing.T) {
	g, _ := RasterizeDefault(flagspec.Poland)
	white := g.CellsOfColor(palette.White)
	if len(white) != 40 {
		t.Fatalf("poland has %d white cells, want 40", len(white))
	}
	for _, c := range white {
		if c.Y >= 4 {
			t.Fatalf("white cell %v below the fold", c)
		}
	}
}

func TestStringRendering(t *testing.T) {
	g, _ := RasterizeDefault(flagspec.Mauritius)
	s := g.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("%d lines, want 8", len(lines))
	}
	if lines[0] != strings.Repeat("R", 12) {
		t.Fatalf("top row %q", lines[0])
	}
	if lines[7] != strings.Repeat("G", 12) {
		t.Fatalf("bottom row %q", lines[7])
	}
}

func TestWritePPM(t *testing.T) {
	g, _ := RasterizeDefault(flagspec.France)
	var buf bytes.Buffer
	if err := g.WritePPM(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P6\n24 16\n255\n")) {
		t.Fatalf("PPM header wrong: %q", out[:20])
	}
	wantLen := len("P6\n24 16\n255\n") + 24*16*3
	if len(out) != wantLen {
		t.Fatalf("PPM length %d, want %d", len(out), wantLen)
	}
}

func TestWriteSVG(t *testing.T) {
	g, _ := RasterizeDefault(flagspec.Canada)
	var buf bytes.Buffer
	if err := g.WriteSVG(&buf, 10); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "<svg") || !strings.Contains(s, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(s, flagspec.Canada.Layers[1].Color.Hex()) {
		t.Fatal("SVG missing the red fill")
	}
	if !strings.Contains(s, "<line") {
		t.Fatal("SVG missing handout gridlines")
	}
}

func TestLegendListsColors(t *testing.T) {
	g, _ := RasterizeDefault(flagspec.Mauritius)
	legend := g.Legend()
	for _, want := range []string{"red", "blue", "yellow", "green"} {
		if !strings.Contains(legend, want) {
			t.Fatalf("legend %q missing %s", legend, want)
		}
	}
}

func TestReuseKeepsBackingAndBlanks(t *testing.T) {
	g := New(8, 4)
	if err := g.Paint(geom.Pt{X: 3, Y: 2}, palette.Red); err != nil {
		t.Fatal(err)
	}
	g.Reuse(8, 4)
	if got := g.At(geom.Pt{X: 3, Y: 2}); got != palette.None {
		t.Fatalf("reused grid cell = %v, want blank", got)
	}
	if g.PaintCount() != 0 {
		t.Fatalf("reused grid paints = %d, want 0", g.PaintCount())
	}
	// Shrinking then regrowing within capacity must not allocate cells.
	g.Reuse(4, 2)
	if g.W() != 4 || g.H() != 2 {
		t.Fatalf("reused grid is %dx%d, want 4x2", g.W(), g.H())
	}
	g.Reuse(16, 8)
	if g.W() != 16 || g.H() != 8 {
		t.Fatalf("regrown grid is %dx%d, want 16x8", g.W(), g.H())
	}
	if got := g.At(geom.Pt{X: 15, Y: 7}); got != palette.None {
		t.Fatalf("regrown corner = %v, want blank", got)
	}
}

func TestReusePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reuse(0, 5) did not panic")
		}
	}()
	New(1, 1).Reuse(0, 5)
}

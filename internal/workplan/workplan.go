// Package workplan turns a flag into per-processor ordered task lists —
// the task decompositions of the activity.
//
// The paper's four scenarios (Fig. 1) are instances of the strategies here:
//
//	Scenario 1: Sequential            — one processor colors everything.
//	Scenario 2: LayerBlocks(p=2)      — stripe pairs (red+blue / yellow+green).
//	Scenario 3: LayerBlocks(p=4)      — one stripe per processor.
//	Scenario 4: VerticalSlices(p=4)   — vertical slices crossing every stripe.
//
// Scenario 4 additionally admits two cell orderings: the naive reading
// order, under which every processor wants the same implement color at the
// same moment (the contention lesson), and the pipelined rotation, under
// which processor i starts on stripe i and the implements circulate like
// data through an arithmetic pipeline (the pipelining lesson).
//
// Block and Cyclic decompositions are not in the paper's core activity but
// are the standard PDC follow-ons; they drive the E19 ablation.
package workplan

import (
	"fmt"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/grid"
	"flagsim/internal/palette"
)

// Task is one unit of work: color one cell with one color. Layer records
// which flag layer the cell belongs to, for dependency enforcement.
type Task struct {
	Cell  geom.Pt
	Color palette.Color
	Layer int
}

// Plan is a complete decomposition: an ordered task list per processor,
// plus the layer dependency structure the simulator must enforce.
type Plan struct {
	// FlagName and W, H identify the workload.
	FlagName string
	W, H     int
	// Strategy names the decomposition for reports ("sequential",
	// "layer-blocks", "vertical-slices", ...).
	Strategy string
	// PerProc[i] is the ordered work of processor i.
	PerProc [][]Task
	// LayerDeps[l] lists layer indices that must be fully painted before
	// any cell of layer l may start. Derived from the flag spec.
	LayerDeps [][]int
	// LayerCellCount[l] is the total number of cells of layer l across
	// all processors, for the simulator's completion counters.
	LayerCellCount []int
	// Overpainted reports whether the plan paints full layers (Painter's
	// algorithm, some cells painted more than once) rather than only
	// visible cells.
	Overpainted bool

	// compiled is the compiled flag the plan was built from; verification
	// of the plan, and of runs executing it, reuses its reference image.
	compiled *flagspec.Compiled
}

// New assembles an overpainted plan of c's flag from per-processor task
// lists, taking the layer dependencies and cell counts from c, and
// validates it. The plan keeps c for verification.
func New(c *flagspec.Compiled, strategy string, perProc [][]Task) (*Plan, error) {
	w, h := c.Size()
	plan := &Plan{
		FlagName: c.Flag().Name, W: w, H: h,
		Strategy:       strategy,
		PerProc:        perProc,
		LayerDeps:      c.Deps(),
		LayerCellCount: c.Counts(),
		Overpainted:    true,
		compiled:       c,
	}
	return plan, plan.Validate()
}

// Compiled returns the compiled flag the plan was built from, or nil for
// a plan assembled by hand.
func (p *Plan) Compiled() *flagspec.Compiled { return p.compiled }

// InheritCompiled makes p carry src's compiled flag. It is for plans
// that describe another plan's workload, such as the executed
// assignment of a work-stealing or self-scheduled run.
func (p *Plan) InheritCompiled(src *Plan) { p.compiled = src.compiled }

// NumProcs returns the number of processors the plan expects.
func (p *Plan) NumProcs() int { return len(p.PerProc) }

// TotalTasks returns the total number of cell-coloring tasks.
func (p *Plan) TotalTasks() int {
	n := 0
	for _, tasks := range p.PerProc {
		n += len(tasks)
	}
	return n
}

// Validate checks that the plan is internally consistent: tasks in bounds,
// valid colors, layer references within range, per-processor task order
// non-decreasing in layer when that layer has dependencies, and layer cell
// counts matching the task lists.
func (p *Plan) Validate() error {
	if p.W <= 0 || p.H <= 0 {
		return fmt.Errorf("workplan: bad dimensions %dx%d", p.W, p.H)
	}
	if len(p.PerProc) == 0 {
		return fmt.Errorf("workplan: no processors")
	}
	bounds := geom.R(0, 0, p.W, p.H)
	counts := make([]int, len(p.LayerCellCount))
	for pi, tasks := range p.PerProc {
		for ti, t := range tasks {
			if !t.Cell.In(bounds) {
				return fmt.Errorf("workplan: proc %d task %d out of bounds at %v", pi, ti, t.Cell)
			}
			if !t.Color.Valid() || t.Color == palette.None {
				return fmt.Errorf("workplan: proc %d task %d has invalid color", pi, ti)
			}
			if t.Layer < 0 || t.Layer >= len(p.LayerCellCount) {
				return fmt.Errorf("workplan: proc %d task %d references layer %d of %d", pi, ti, t.Layer, len(p.LayerCellCount))
			}
			counts[t.Layer]++
		}
	}
	for l, want := range p.LayerCellCount {
		if counts[l] != want {
			return fmt.Errorf("workplan: layer %d has %d tasks, expected %d", l, counts[l], want)
		}
	}
	for l, deps := range p.LayerDeps {
		for _, d := range deps {
			if d < 0 || d >= len(p.LayerCellCount) {
				return fmt.Errorf("workplan: layer %d depends on invalid layer %d", l, d)
			}
			if d == l {
				return fmt.Errorf("workplan: layer %d depends on itself", l)
			}
		}
	}
	return nil
}

// Verify paints the plan onto a blank grid in any dependency-respecting
// order and compares against the flag's reference image. It is the
// correctness oracle used by tests: a decomposition bug (dropped cell,
// wrong color, bad layer order) fails here regardless of timing.
func (p *Plan) Verify(f *flagspec.Flag) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c := p.compiled
	if !c.Matches(f, p.W, p.H) {
		var err error
		if c, err = flagspec.Compile(f, p.W, p.H); err != nil {
			return err
		}
	}
	g := grid.New(p.W, p.H)
	// Paint in global layer order, which respects every LayerDeps edge
	// because flag specs only allow dependencies on earlier layers.
	byLayer := make([][]Task, len(p.LayerCellCount))
	for _, tasks := range p.PerProc {
		for _, t := range tasks {
			byLayer[t.Layer] = append(byLayer[t.Layer], t)
		}
	}
	for _, tasks := range byLayer {
		for _, t := range tasks {
			if err := g.Paint(t.Cell, t.Color); err != nil {
				return err
			}
		}
	}
	want, err := grid.Restore(p.W, p.H, c.Reference(), 0)
	if err != nil {
		return err
	}
	if !g.Equal(want) {
		diff, _ := g.Diff(want)
		return fmt.Errorf("workplan: plan %q does not reproduce %s: %d cells differ (first: %v)",
			p.Strategy, f.Name, len(diff), first(diff))
	}
	return nil
}

func first(pts []geom.Pt) geom.Pt {
	if len(pts) == 0 {
		return geom.Pt{}
	}
	return pts[0]
}

// appendIn appends the cells of layer l inside r to dst in reading
// order.
func appendIn(dst []Task, c *flagspec.Compiled, l int, r geom.Rect) []Task {
	color := c.Flag().Layers[l].Color
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			if c.Covers(l, x, y) {
				dst = append(dst, Task{Cell: geom.Pt{X: x, Y: y}, Color: color, Layer: l})
			}
		}
	}
	return dst
}

// Sequential is scenario 1: one processor paints every layer in order,
// each layer in reading order.
func Sequential(f *flagspec.Flag, w, h int) (*Plan, error) {
	return LayerBlocks(f, w, h, 1)
}

// LayerBlocks distributes whole layers over p processors in contiguous
// blocks, balancing by cell count: with Mauritius and p=2 this is the
// paper's scenario 2 (stripe pairs); with p=4, scenario 3 (one stripe
// each). Each processor performs its layers in flag order, each layer in
// reading order.
func LayerBlocks(f *flagspec.Flag, w, h int, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	if p > len(f.Layers) {
		return nil, fmt.Errorf("workplan: layer-blocks with %d processors but %s has only %d layers",
			p, f.Name, len(f.Layers))
	}
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	// Contiguous balanced partition of layers by cell count (simple
	// greedy: target = total/p, close a block when it reaches target).
	counts := c.Counts()
	total := c.Total()
	owner := make([]int, len(counts))
	sizes := make([]int, p)
	proc, acc := 0, 0
	remainingLayers := len(counts)
	for li, n := range counts {
		remainingProcs := p - proc - 1
		// Never leave more processors than layers remaining.
		mustClose := remainingLayers-1 < remainingProcs+1 && proc < p-1
		owner[li] = proc
		sizes[proc] += n
		acc += n
		remainingLayers--
		if proc < p-1 && (mustClose || acc >= (total*(proc+1))/p) {
			proc++
		}
	}
	perProc := make([][]Task, p)
	for pi, n := range sizes {
		perProc[pi] = make([]Task, 0, n)
	}
	all := geom.R(0, 0, w, h)
	for li, pi := range owner {
		perProc[pi] = appendIn(perProc[pi], c, li, all)
	}
	return New(c, fmt.Sprintf("layer-blocks(p=%d)", p), perProc)
}

// VerticalSlices is scenario 4: the canvas is split into p vertical
// slices, one per processor; each processor paints every layer's cells
// within its slice. With rotate=false each processor takes layers in flag
// order (the naive, maximally contended order). With rotate=true processor
// i starts at layer (i*len(layers)/p) and wraps — the pipelined rotation
// of §III-C under which the implements circulate.
func VerticalSlices(f *flagspec.Flag, w, h, p int, rotate bool) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	if p > w {
		return nil, fmt.Errorf("workplan: %d slices across width %d", p, w)
	}
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	if rotate && hasInterLayerDeps(c.Deps()) {
		return nil, fmt.Errorf("workplan: pipelined rotation is only valid for flags with independent layers; %s has layer dependencies", f.Name)
	}
	slices := geom.R(0, 0, w, h).SplitCols(p)
	perProc := make([][]Task, p)
	nl := len(f.Layers)
	for pi, slice := range slices {
		n := 0
		for li := 0; li < nl; li++ {
			n += c.CountIn(li, slice)
		}
		tasks := make([]Task, 0, n)
		for k := 0; k < nl; k++ {
			li := k
			if rotate {
				li = (pi*nl/p + k) % nl
			}
			tasks = appendIn(tasks, c, li, slice)
		}
		perProc[pi] = tasks
	}
	name := "vertical-slices"
	if rotate {
		name = "vertical-slices-pipelined"
	}
	return New(c, fmt.Sprintf("%s(p=%d)", name, p), perProc)
}

func hasInterLayerDeps(deps [][]int) bool {
	for _, d := range deps {
		if len(d) > 0 {
			return true
		}
	}
	return false
}

// Blocks tiles the canvas into a gx×gy grid of rectangular blocks assigned
// to processors round-robin; each processor paints its blocks layer by
// layer, keeping block order within a layer so dependencies are
// satisfiable.
func Blocks(f *flagspec.Flag, w, h, p, gx, gy int) (*Plan, error) {
	if p <= 0 || gx <= 0 || gy <= 0 {
		return nil, fmt.Errorf("workplan: bad block parameters p=%d gx=%d gy=%d", p, gx, gy)
	}
	if gx*gy < p {
		return nil, fmt.Errorf("workplan: %d blocks for %d processors", gx*gy, p)
	}
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	cols := geom.R(0, 0, w, h).SplitCols(gx)
	var blocks []geom.Rect
	for _, col := range cols {
		blocks = append(blocks, col.SplitRows(gy)...)
	}
	nl := len(f.Layers)
	perProc := make([][]Task, p)
	for pi := range perProc {
		n := 0
		for bi := pi; bi < len(blocks); bi += p {
			for li := 0; li < nl; li++ {
				n += c.CountIn(li, blocks[bi])
			}
		}
		tasks := make([]Task, 0, n)
		for li := 0; li < nl; li++ {
			for bi := pi; bi < len(blocks); bi += p {
				tasks = appendIn(tasks, c, li, blocks[bi])
			}
		}
		perProc[pi] = tasks
	}
	return New(c, fmt.Sprintf("blocks(p=%d,%dx%d)", p, gx, gy), perProc)
}

// Cyclic deals cells of each layer to processors round-robin in reading
// order — fine-grained interleaving with perfect load balance and maximal
// implement thrash, the canonical "cyclic distribution" of PDC curricula.
func Cyclic(f *flagspec.Flag, w, h, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	// One continuous deal across all layers: restarting at processor 0
	// per layer would hand the low-index processors an extra cell per
	// layer and compound the imbalance.
	total := c.Total()
	perProc := make([][]Task, p)
	for pi := range perProc {
		perProc[pi] = make([]Task, 0, share(total, p, pi))
	}
	deal := 0
	for li, layer := range f.Layers {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if c.Covers(li, x, y) {
					pi := deal % p
					deal++
					perProc[pi] = append(perProc[pi], Task{Cell: geom.Pt{X: x, Y: y}, Color: layer.Color, Layer: li})
				}
			}
		}
	}
	return New(c, fmt.Sprintf("cyclic(p=%d)", p), perProc)
}

// share is processor pi's part of n items dealt evenly over p, the
// first n%p processors taking one extra.
func share(n, p, pi int) int {
	if pi < n%p {
		return n/p + 1
	}
	return n / p
}

// VisibleOnly rewrites a flag into a single-pass plan that paints only the
// finally visible color of each cell, split over p processors by balanced
// contiguous runs in reading order. It has no layer dependencies and no
// overpaint — the "smart sequential" baseline that quantifies what the
// Painter's algorithm costs.
func VisibleOnly(f *flagspec.Flag, w, h, p int) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("workplan: %d processors", p)
	}
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	visible := 0
	for _, color := range c.Reference() {
		if color != palette.None {
			visible++
		}
	}
	perProc := make([][]Task, p)
	for pi := range perProc {
		if n := share(visible, p, pi); n > 0 {
			perProc[pi] = make([]Task, 0, n)
		}
	}
	counts := make([]int, len(f.Layers))
	pi := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			li := c.Top(x, y)
			if li < 0 {
				continue
			}
			// Move on when pi's run is full; the capacities sum to
			// visible, so pi never passes the last processor.
			for len(perProc[pi]) == cap(perProc[pi]) {
				pi++
			}
			perProc[pi] = append(perProc[pi], Task{Cell: geom.Pt{X: x, Y: y}, Color: f.Layers[li].Color, Layer: li})
			counts[li]++
		}
	}
	plan := &Plan{
		FlagName: f.Name, W: w, H: h,
		Strategy:       fmt.Sprintf("visible-only(p=%d)", p),
		PerProc:        perProc,
		LayerDeps:      make([][]int, len(f.Layers)),
		LayerCellCount: counts,
		Overpainted:    false,
		compiled:       c,
	}
	return plan, plan.Validate()
}

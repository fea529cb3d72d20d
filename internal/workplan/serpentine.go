package workplan

import (
	"fmt"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
)

// Cell orderings. Reading order (the default everywhere else) jumps from
// the right edge back to the left at each row break, paying the full
// carriage-return movement; serpentine (boustrophedon) order alternates
// row direction so consecutive cells are always adjacent.
//
// On paper this is how experienced students actually color; in the
// simulator it isolates a movement-cost ablation with a direct PDC
// analogy: traversal order changes performance even when the work is
// identical — the unplugged version of cache-friendly access patterns.

// Ordering selects the cell traversal within each layer region.
type Ordering uint8

// Orderings.
const (
	// ReadingOrder is left-to-right, top-to-bottom.
	ReadingOrder Ordering = iota
	// Serpentine alternates row direction (boustrophedon).
	Serpentine
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case ReadingOrder:
		return "reading-order"
	case Serpentine:
		return "serpentine"
	default:
		return fmt.Sprintf("ordering(%d)", uint8(o))
	}
}

// SequentialOrdered is Sequential with an explicit cell traversal within
// each layer.
func SequentialOrdered(f *flagspec.Flag, w, h int, o Ordering) (*Plan, error) {
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	tasks := make([]Task, 0, c.Total())
	for li, layer := range f.Layers {
		for y := 0; y < h; y++ {
			for k := 0; k < w; k++ {
				x := k
				if o == Serpentine && y%2 == 1 {
					x = w - 1 - k
				}
				if c.Covers(li, x, y) {
					tasks = append(tasks, Task{Cell: geom.Pt{X: x, Y: y}, Color: layer.Color, Layer: li})
				}
			}
		}
	}
	return New(c, fmt.Sprintf("sequential-%s", o), [][]Task{tasks})
}

// MovementCost sums the Manhattan distances between consecutive tasks of
// each processor — the abstract travel a plan demands, independent of any
// processor's speed.
func MovementCost(p *Plan) int {
	total := 0
	for _, tasks := range p.PerProc {
		for i := 1; i < len(tasks); i++ {
			total += tasks[i-1].Cell.ManhattanDist(tasks[i].Cell)
		}
	}
	return total
}

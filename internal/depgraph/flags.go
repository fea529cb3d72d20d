package depgraph

import (
	"time"

	"flagsim/internal/flagspec"
)

// FromFlag builds the layer dependency graph of a flag at raster size w×h.
// Nodes are layers weighted by their cell counts (cells × 1s base time);
// edges come from explicit DependsOn declarations plus implied overpaint
// order (a layer that overlaps an earlier one must follow it).
func FromFlag(f *flagspec.Flag, w, h int) (*Graph, error) {
	c, err := flagspec.Compile(f, w, h)
	if err != nil {
		return nil, err
	}
	g := New()
	for i, l := range f.Layers {
		if err := g.AddNode(Node{
			ID:     l.Name,
			Weight: time.Duration(c.Counts()[i]) * time.Second,
			Label:  l.Color.String(),
		}); err != nil {
			return nil, err
		}
	}
	for i, deps := range c.Deps() {
		for _, j := range deps {
			if err := g.AddEdge(f.Layers[j].Name, f.Layers[i].Name); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// JordanReference returns the paper's intended solution for the flag of
// Jordan (Fig. 9): three independent stripes, then the red triangle
// (depending on all three), then the white star (depending on the
// triangle). If omitWhiteStripe is true the white stripe node is dropped —
// the grading rule that accepts "the paper is already white".
func JordanReference(omitWhiteStripe bool) *Graph {
	g := New()
	g.MustAddNode(Node{ID: "black-stripe", Weight: 48 * time.Second})
	if !omitWhiteStripe {
		g.MustAddNode(Node{ID: "white-stripe", Weight: 48 * time.Second})
	}
	g.MustAddNode(Node{ID: "green-stripe", Weight: 48 * time.Second})
	g.MustAddNode(Node{ID: "red-triangle", Weight: 30 * time.Second})
	g.MustAddNode(Node{ID: "white-star", Weight: 4 * time.Second})
	g.MustAddEdge("black-stripe", "red-triangle")
	if !omitWhiteStripe {
		g.MustAddEdge("white-stripe", "red-triangle")
	}
	g.MustAddEdge("green-stripe", "red-triangle")
	g.MustAddEdge("red-triangle", "white-star")
	return g
}

// JordanSplitTriangleReference returns the "significantly more
// complicated" correct answer for students who split the triangle into two
// right triangles (§V-C): the top half is independent of the green stripe
// and the bottom half independent of the black stripe.
func JordanSplitTriangleReference(omitWhiteStripe bool) *Graph {
	g := New()
	g.MustAddNode(Node{ID: "black-stripe", Weight: 48 * time.Second})
	if !omitWhiteStripe {
		g.MustAddNode(Node{ID: "white-stripe", Weight: 48 * time.Second})
	}
	g.MustAddNode(Node{ID: "green-stripe", Weight: 48 * time.Second})
	g.MustAddNode(Node{ID: "red-triangle-top", Weight: 15 * time.Second})
	g.MustAddNode(Node{ID: "red-triangle-bottom", Weight: 15 * time.Second})
	g.MustAddNode(Node{ID: "white-star", Weight: 4 * time.Second})
	g.MustAddEdge("black-stripe", "red-triangle-top")
	if !omitWhiteStripe {
		g.MustAddEdge("white-stripe", "red-triangle-top")
		g.MustAddEdge("white-stripe", "red-triangle-bottom")
	}
	g.MustAddEdge("green-stripe", "red-triangle-bottom")
	g.MustAddEdge("red-triangle-top", "white-star")
	g.MustAddEdge("red-triangle-bottom", "white-star")
	return g
}

// GreatBritainReference returns the layer graph shown to students as the
// worked example (Fig. 3 discussion): background, then diagonals, then the
// rectilinear lines.
func GreatBritainReference() *Graph {
	g := New()
	g.MustAddNode(Node{ID: "blue-field", Weight: 288 * time.Second})
	g.MustAddNode(Node{ID: "white-saltire", Weight: 60 * time.Second})
	g.MustAddNode(Node{ID: "red-saltire", Weight: 28 * time.Second})
	g.MustAddNode(Node{ID: "white-cross", Weight: 64 * time.Second})
	g.MustAddNode(Node{ID: "red-cross", Weight: 40 * time.Second})
	g.MustAddEdge("blue-field", "white-saltire")
	g.MustAddEdge("white-saltire", "red-saltire")
	g.MustAddEdge("white-saltire", "white-cross")
	g.MustAddEdge("white-cross", "red-cross")
	return g
}

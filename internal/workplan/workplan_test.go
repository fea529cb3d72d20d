package workplan

import (
	"strings"
	"testing"
	"testing/quick"

	"flagsim/internal/flagspec"
	"flagsim/internal/palette"
)

// allStrategies builds every decomposition of f at its default size for a
// sensible processor count per strategy.
func allStrategies(t *testing.T, f *flagspec.Flag) map[string]*Plan {
	t.Helper()
	w, h := f.DefaultW, f.DefaultH
	out := map[string]*Plan{}
	add := func(name string, p *Plan, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s/%s: %v", f.Name, name, err)
		}
		out[name] = p
	}
	seq, err := Sequential(f, w, h)
	add("sequential", seq, err)
	if len(f.Layers) >= 2 {
		lb, err := LayerBlocks(f, w, h, 2)
		add("layer-blocks-2", lb, err)
	}
	vsN, err := VerticalSlices(f, w, h, 4, false)
	add("vertical-slices", vsN, err)
	bl, err := Blocks(f, w, h, 4, 2, 2)
	add("blocks", bl, err)
	cy, err := Cyclic(f, w, h, 4)
	add("cyclic", cy, err)
	vo, err := VisibleOnly(f, w, h, 4)
	add("visible-only", vo, err)
	return out
}

func TestEveryStrategyReproducesEveryFlag(t *testing.T) {
	for _, f := range flagspec.All() {
		for name, plan := range allStrategies(t, f) {
			if err := plan.Verify(f); err != nil {
				t.Errorf("%s/%s: %v", f.Name, name, err)
			}
		}
	}
}

// TestEveryStrategyExactSize: every planner sizes each processor's task
// list exactly (len == cap, no append slack held for the life of the
// plan) and keeps the compiled flag it was built from.
func TestEveryStrategyExactSize(t *testing.T) {
	for _, f := range flagspec.All() {
		plans := allStrategies(t, f)
		for _, o := range []Ordering{ReadingOrder, Serpentine} {
			p, err := SequentialOrdered(f, f.DefaultW, f.DefaultH, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, o, err)
			}
			plans[o.String()] = p
		}
		for name, plan := range plans {
			for pi, tasks := range plan.PerProc {
				if len(tasks) != cap(tasks) {
					t.Errorf("%s/%s: proc %d has len %d, cap %d", f.Name, name, pi, len(tasks), cap(tasks))
				}
			}
			if !plan.Compiled().Matches(f, f.DefaultW, f.DefaultH) {
				t.Errorf("%s/%s: plan does not carry its compiled flag", f.Name, name)
			}
		}
	}
}

func TestScenario2SplitsStripePairs(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := LayerBlocks(f, f.DefaultW, f.DefaultH, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumProcs() != 2 {
		t.Fatalf("%d procs", plan.NumProcs())
	}
	// P1 gets red+blue, P2 yellow+green — the paper's scenario 2.
	colors := func(tasks []Task) map[palette.Color]bool {
		out := map[palette.Color]bool{}
		for _, task := range tasks {
			out[task.Color] = true
		}
		return out
	}
	c0, c1 := colors(plan.PerProc[0]), colors(plan.PerProc[1])
	if !c0[palette.Red] || !c0[palette.Blue] || len(c0) != 2 {
		t.Fatalf("P1 colors %v", c0)
	}
	if !c1[palette.Yellow] || !c1[palette.Green] || len(c1) != 2 {
		t.Fatalf("P2 colors %v", c1)
	}
	if len(plan.PerProc[0]) != len(plan.PerProc[1]) {
		t.Fatalf("unbalanced: %d vs %d", len(plan.PerProc[0]), len(plan.PerProc[1]))
	}
}

func TestScenario3OneStripeEach(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := LayerBlocks(f, f.DefaultW, f.DefaultH, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pi, tasks := range plan.PerProc {
		if len(tasks) != 24 {
			t.Fatalf("proc %d has %d tasks, want 24", pi, len(tasks))
		}
		first := tasks[0].Color
		for _, task := range tasks {
			if task.Color != first {
				t.Fatalf("proc %d mixes colors", pi)
			}
		}
	}
}

func TestLayerBlocksRejectsTooManyProcs(t *testing.T) {
	f := flagspec.Mauritius
	if _, err := LayerBlocks(f, f.DefaultW, f.DefaultH, 5); err == nil {
		t.Fatal("expected error: 5 procs for 4 layers")
	}
}

func TestVerticalSlicesCoverDistinctColumns(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := VerticalSlices(f, f.DefaultW, f.DefaultH, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for pi, tasks := range plan.PerProc {
		lo, hi := pi*3, pi*3+2
		for _, task := range tasks {
			if task.Cell.X < lo || task.Cell.X > hi {
				t.Fatalf("proc %d painted column %d outside [%d,%d]", pi, task.Cell.X, lo, hi)
			}
		}
		if len(tasks) != 24 {
			t.Fatalf("proc %d has %d tasks", pi, len(tasks))
		}
	}
}

func TestVerticalSlicesNaiveAllStartSameColor(t *testing.T) {
	f := flagspec.Mauritius
	plan, _ := VerticalSlices(f, f.DefaultW, f.DefaultH, 4, false)
	for pi, tasks := range plan.PerProc {
		if tasks[0].Color != palette.Red {
			t.Fatalf("naive proc %d starts with %v, want red", pi, tasks[0].Color)
		}
	}
}

func TestVerticalSlicesRotatedStartDistinctColors(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := VerticalSlices(f, f.DefaultW, f.DefaultH, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[palette.Color]bool{}
	for _, tasks := range plan.PerProc {
		if seen[tasks[0].Color] {
			t.Fatalf("two processors start on %v", tasks[0].Color)
		}
		seen[tasks[0].Color] = true
	}
	if err := plan.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestRotationRejectedForLayeredFlags(t *testing.T) {
	f := flagspec.GreatBritain
	if _, err := VerticalSlices(f, f.DefaultW, f.DefaultH, 4, true); err == nil {
		t.Fatal("pipelined rotation must be rejected for dependent layers")
	}
}

func TestVerticalSlicesRejectsTooManySlices(t *testing.T) {
	f := flagspec.Mauritius
	if _, err := VerticalSlices(f, f.DefaultW, f.DefaultH, 20, false); err == nil {
		t.Fatal("expected error: more slices than columns")
	}
}

func TestCyclicBalances(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := Cyclic(f, f.DefaultW, f.DefaultH, 5)
	if err != nil {
		t.Fatal(err)
	}
	min, max := -1, 0
	for _, tasks := range plan.PerProc {
		if len(tasks) > max {
			max = len(tasks)
		}
		if min == -1 || len(tasks) < min {
			min = len(tasks)
		}
	}
	if max-min > 1 {
		t.Fatalf("cyclic imbalance: min %d max %d", min, max)
	}
}

func TestVisibleOnlyPaintsEachCellOnce(t *testing.T) {
	f := flagspec.GreatBritain
	plan, err := VisibleOnly(f, f.DefaultW, f.DefaultH, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Overpainted {
		t.Fatal("visible-only must not be marked overpainted")
	}
	if got, want := plan.TotalTasks(), f.DefaultW*f.DefaultH; got != want {
		t.Fatalf("visible-only has %d tasks, want %d", got, want)
	}
	full, err := Sequential(f, f.DefaultW, f.DefaultH)
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalTasks() <= plan.TotalTasks() {
		t.Fatal("layered plan should have strictly more tasks (overpaint)")
	}
}

func TestBlocksParameterValidation(t *testing.T) {
	f := flagspec.Mauritius
	if _, err := Blocks(f, f.DefaultW, f.DefaultH, 4, 1, 3); err == nil {
		t.Fatal("expected error: 3 blocks for 4 processors")
	}
	if _, err := Blocks(f, f.DefaultW, f.DefaultH, 0, 2, 2); err == nil {
		t.Fatal("expected error: zero processors")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	f := flagspec.Mauritius
	plan, _ := Sequential(f, f.DefaultW, f.DefaultH)

	bad := *plan
	bad.PerProc = [][]Task{append([]Task(nil), plan.PerProc[0]...)}
	bad.PerProc[0][0].Cell.X = -1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("expected out-of-bounds error, got %v", err)
	}

	bad2 := *plan
	bad2.PerProc = [][]Task{append([]Task(nil), plan.PerProc[0]...)}
	bad2.PerProc[0][0].Layer = 17
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected layer range error")
	}

	bad3 := *plan
	bad3.PerProc = [][]Task{plan.PerProc[0][1:]}
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected cell count mismatch error")
	}
}

func TestVerifyCatchesWrongColor(t *testing.T) {
	f := flagspec.Mauritius
	plan, _ := Sequential(f, f.DefaultW, f.DefaultH)
	// Flip one task's color (keeping its layer) — Verify must notice.
	plan.PerProc[0][0].Color = palette.Black
	if err := plan.Verify(f); err == nil {
		t.Fatal("Verify should catch a wrong color")
	}
}

// Property: for random sizes and processor counts, vertical slices always
// reproduce Mauritius exactly.
func TestVerticalSlicesProperty(t *testing.T) {
	f := flagspec.Mauritius
	check := func(wRaw, hRaw, pRaw uint8, rotate bool) bool {
		w := int(wRaw%24) + 4
		h := int(hRaw%24) + 4
		p := int(pRaw%4) + 1
		if p > w {
			p = w
		}
		plan, err := VerticalSlices(f, w, h, p, rotate)
		if err != nil {
			return false
		}
		return plan.Verify(f) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cyclic reproduces any built-in flag at scaled sizes.
func TestCyclicAllFlagsProperty(t *testing.T) {
	flags := flagspec.All()
	check := func(fi uint8, pRaw uint8) bool {
		f := flags[int(fi)%len(flags)]
		p := int(pRaw%6) + 1
		plan, err := Cyclic(f, f.DefaultW, f.DefaultH, p)
		if err != nil {
			return false
		}
		return plan.Verify(f) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

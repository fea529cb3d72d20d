package sched

import (
	"testing"
	"testing/quick"

	"flagsim/internal/flagspec"
	"flagsim/internal/workplan"
)

func TestAllSchedulersReproduceAllFlags(t *testing.T) {
	for _, f := range flagspec.All() {
		w, h := f.DefaultW, f.DefaultH
		plans := map[string]func() (interface{ Verify(*flagspec.Flag) error }, error){
			"lpt": func() (interface{ Verify(*flagspec.Flag) error }, error) {
				return LPT(f, w, h, 3)
			},
			"chunked": func() (interface{ Verify(*flagspec.Flag) error }, error) {
				return Chunked(f, w, h, 3, 8)
			},
			"guided": func() (interface{ Verify(*flagspec.Flag) error }, error) {
				return Guided(f, w, h, 3)
			},
		}
		for name, build := range plans {
			p, err := build()
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, name, err)
			}
			if err := p.Verify(f); err != nil {
				t.Errorf("%s/%s: %v", f.Name, name, err)
			}
		}
	}
}

func TestLPTBalancesBetterThanNaiveStripes(t *testing.T) {
	// Sweden's cross layer is much smaller than its field; LPT's row
	// regions should spread the work nearly evenly.
	f := flagspec.Sweden
	plan, err := LPT(f, f.DefaultW, f.DefaultH, 4)
	if err != nil {
		t.Fatal(err)
	}
	if imb := Imbalance(plan); imb > 0.30 {
		t.Fatalf("LPT imbalance %.2f too high", imb)
	}
}

func TestGuidedBalancesTightly(t *testing.T) {
	f := flagspec.Mauritius
	plan, err := Guided(f, f.DefaultW, f.DefaultH, 4)
	if err != nil {
		t.Fatal(err)
	}
	if imb := Imbalance(plan); imb > 0.5 {
		t.Fatalf("guided imbalance %.2f", imb)
	}
}

func TestChunkedChunkSizeEffect(t *testing.T) {
	f := flagspec.Mauritius
	small, err := Chunked(f, f.DefaultW, f.DefaultH, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Chunked(f, f.DefaultW, f.DefaultH, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	if Imbalance(small) > Imbalance(big) {
		t.Fatalf("unit chunks (%.2f) should balance at least as well as huge chunks (%.2f)",
			Imbalance(small), Imbalance(big))
	}
}

func TestParameterValidation(t *testing.T) {
	f := flagspec.Mauritius
	if _, err := LPT(f, 12, 8, 0); err == nil {
		t.Fatal("LPT with 0 procs should error")
	}
	if _, err := Chunked(f, 12, 8, 2, 0); err == nil {
		t.Fatal("Chunked with chunk 0 should error")
	}
	if _, err := Guided(f, 12, 8, -1); err == nil {
		t.Fatal("Guided with negative procs should error")
	}
}

func TestTasksOrderedByLayer(t *testing.T) {
	f := flagspec.GreatBritain
	p, err := LPT(f, f.DefaultW, f.DefaultH, 4)
	if err != nil {
		t.Fatal(err)
	}
	for pi, tasks := range p.PerProc {
		for i := 1; i < len(tasks); i++ {
			if tasks[i].Layer < tasks[i-1].Layer {
				t.Fatalf("proc %d tasks not layer-ordered at %d", pi, i)
			}
		}
	}
}

func TestImbalanceProperties(t *testing.T) {
	check := func(pRaw, chunkRaw uint8) bool {
		f := flagspec.Mauritius
		p := int(pRaw%6) + 1
		chunk := int(chunkRaw%16) + 1
		plan, err := Chunked(f, f.DefaultW, f.DefaultH, p, chunk)
		if err != nil {
			return false
		}
		imb := Imbalance(plan)
		return imb >= 0 && plan.Verify(f) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulersExactSize: every scheduler sizes each processor's task
// list exactly (len == cap) and leaves a processor with no work nil.
func TestSchedulersExactSize(t *testing.T) {
	for _, f := range flagspec.All() {
		w, h := f.DefaultW, f.DefaultH
		for p := 1; p <= 7; p++ {
			builds := map[string]func() (*workplan.Plan, error){
				"lpt":     func() (*workplan.Plan, error) { return LPT(f, w, h, p) },
				"chunked": func() (*workplan.Plan, error) { return Chunked(f, w, h, p, 5) },
				"guided":  func() (*workplan.Plan, error) { return Guided(f, w, h, p) },
			}
			for name, build := range builds {
				plan, err := build()
				if err != nil {
					t.Fatalf("%s/%s(p=%d): %v", f.Name, name, p, err)
				}
				for pi, tasks := range plan.PerProc {
					if len(tasks) != cap(tasks) || (len(tasks) == 0 && tasks != nil) {
						t.Errorf("%s/%s(p=%d): proc %d has len %d, cap %d, nil %v",
							f.Name, name, p, pi, len(tasks), cap(tasks), tasks == nil)
					}
				}
			}
		}
	}
}

package sim

// Allocation-flatness and specialized-path tests for the zero-alloc
// engine core. These pin the two properties the arena refactor bought:
//
//   - a warm-arena run of any executor performs zero heap allocations
//     (the property benchguard gates in CI; this test is the local,
//     benchmark-independent version), and
//   - hook specialization is decided per run, not per arena: installing
//     a probe selects the instrumented opcode bodies for that run only,
//     and the next hook-free run on the same arena is back on the fast
//     path with byte-identical results.

import (
	"testing"
	"time"

	"flagsim/internal/flagspec"
	"flagsim/internal/geom"
	"flagsim/internal/implement"
	"flagsim/internal/palette"
	"flagsim/internal/processor"
	"flagsim/internal/workplan"
)

// allocSnapshot deep-copies the comparable surface of a Result, because
// arena-run Results alias arena memory that the next run overwrites.
type allocSnapshot struct {
	makespan, setup any
	events          uint64
	breaks          int
	grid            string
	procs           []ProcStats
	impls           []ImplementStats
	trace           []Span
}

func snapshotResult(r *Result) allocSnapshot {
	s := allocSnapshot{
		makespan: r.Makespan,
		setup:    r.SetupTime,
		events:   r.Events,
		breaks:   r.Breaks,
		grid:     r.Grid.String(),
		procs:    append([]ProcStats(nil), r.Procs...),
		impls:    append([]ImplementStats(nil), r.Implements...),
		trace:    append([]Span(nil), r.Trace...),
	}
	return s
}

func (s allocSnapshot) equal(o allocSnapshot) bool {
	if s.makespan != o.makespan || s.setup != o.setup || s.events != o.events ||
		s.breaks != o.breaks || s.grid != o.grid ||
		len(s.procs) != len(o.procs) || len(s.impls) != len(o.impls) || len(s.trace) != len(o.trace) {
		return false
	}
	for i := range s.procs {
		if s.procs[i] != o.procs[i] {
			return false
		}
	}
	for i := range s.impls {
		if s.impls[i] != o.impls[i] {
			return false
		}
	}
	for i := range s.trace {
		if s.trace[i] != o.trace[i] {
			return false
		}
	}
	return true
}

func allocSet() *implement.Set {
	return implement.NewSet(implement.ThickMarker, flagspec.Mauritius.Colors())
}

// TestWarmArenaRunsAllocationFree is the zero-alloc invariant for all
// three executors: after one warm-up run that grows every arena buffer
// to the workload's size, further runs on the same arena must not touch
// the heap at all.
func TestWarmArenaRunsAllocationFree(t *testing.T) {
	f := flagspec.Mauritius
	plan := mauritiusPlan(t, 5)
	executors := []struct {
		name string
		run  func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error)
	}{
		{"static", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return Run(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
		}},
		{"dynamic", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return RunDynamic(DynamicConfig{
				Flag: f, W: f.DefaultW, H: f.DefaultH,
				Procs: procs, Set: set,
				Policy: PullColorAffinity, Arena: arena,
			})
		}},
		{"steal", func(procs []*processor.Processor, set *implement.Set, arena *Arena) (*Result, error) {
			return RunSteal(Config{Plan: plan, Procs: procs, Set: set, Arena: arena})
		}},
	}
	for _, ex := range executors {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			// Team, set, and arena are built once outside the measured
			// closure: the run itself must be allocation-free, not team
			// construction.
			procs := dynTeam(t, 1.3, 1.0, 1.0, 0.5)
			set := allocSet()
			arena := NewArena()
			run := func() {
				if _, err := ex.run(procs, set, arena); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena buffers
			if got := testing.AllocsPerRun(5, run); got != 0 {
				t.Errorf("%s: warm-arena run allocates %.1f allocs/run, want 0", ex.name, got)
			}
		})
	}
}

// nopProbe is an observer that does nothing — installing it still flips
// the engine onto the instrumented opcode bodies, so it isolates the
// fast/instrumented split from any probe side effects.
type nopProbe struct{}

func (nopProbe) Grant(int, *implement.Implement, time.Duration)    {}
func (nopProbe) Release(int, *implement.Implement, time.Duration)  {}
func (nopProbe) Block(int, SpanKind, palette.Color, time.Duration) {}
func (nopProbe) Complete(int, workplan.Task, time.Duration)        {}
func (nopProbe) ProcDone(int, time.Duration)                       {}
func (nopProbe) Span(Span)                                         {}

// TestProbeRemovalRestoresFastPath is the specialization regression
// test: the fast/instrumented choice is made at run entry from that
// run's config, so an arena that just ran instrumented must drop back
// to the fast path — and to fast-path results — the moment the probe is
// gone.
func TestProbeRemovalRestoresFastPath(t *testing.T) {
	plan := mauritiusPlan(t, 5)
	// No Trace here: tracing is itself observation and legitimately
	// selects the instrumented path, which would mask the property under
	// test.
	cfg := func(arena *Arena, probes []Probe) Config {
		return Config{
			Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(),
			Probes: probes, Arena: arena,
		}
	}
	arena := NewArena()

	bare, err := Run(cfg(arena, nil))
	if err != nil {
		t.Fatal(err)
	}
	if arena.e.instrumented {
		t.Fatal("hook-free run selected the instrumented path")
	}
	want := snapshotResult(bare)

	if _, err := Run(cfg(arena, []Probe{nopProbe{}})); err != nil {
		t.Fatal(err)
	}
	if !arena.e.instrumented {
		t.Fatal("probed run did not select the instrumented path")
	}

	after, err := Run(cfg(arena, nil))
	if err != nil {
		t.Fatal(err)
	}
	if arena.e.instrumented {
		t.Error("removing the probe did not restore the fast path on the reused arena")
	}
	if got := snapshotResult(after); !got.equal(want) {
		t.Errorf("fast-path run after probe removal diverged from the pre-probe run:\nbefore: makespan %v events %d grid %s\nafter:  makespan %v events %d grid %s",
			want.makespan, want.events, want.grid[:min(40, len(want.grid))],
			got.makespan, got.events, got.grid[:min(40, len(got.grid))])
	}
}

// TestFastInstrumentedParity pins the refactor's core promise: the fast
// opcode bodies (straight-line, span-batched where legal) and the
// instrumented reference bodies produce byte-identical results — same
// makespan, same event count, same grid, same per-processor and
// per-implement statistics, same trace — for every executor.
func TestFastInstrumentedParity(t *testing.T) {
	f := flagspec.Mauritius
	plan := mauritiusPlan(t, 5)
	executors := []struct {
		name string
		run  func(t *testing.T, probes []Probe) (*Result, error)
	}{
		{"static", func(t *testing.T, probes []Probe) (*Result, error) {
			return Run(Config{Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(), Trace: true, Probes: probes})
		}},
		{"dynamic", func(t *testing.T, probes []Probe) (*Result, error) {
			return RunDynamic(DynamicConfig{
				Flag: f, W: f.DefaultW, H: f.DefaultH,
				Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(),
				Policy: PullColorAffinity, Trace: true, Probes: probes,
			})
		}},
		{"steal", func(t *testing.T, probes []Probe) (*Result, error) {
			return RunSteal(Config{Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(), Trace: true, Probes: probes})
		}},
	}
	for _, ex := range executors {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			fast, err := ex.run(t, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := ex.run(t, []Probe{nopProbe{}})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := snapshotResult(inst), snapshotResult(fast); !got.equal(want) {
				t.Errorf("%s: instrumented run diverged from fast run (makespan %v vs %v, events %d vs %d, %d vs %d trace spans)",
					ex.name, got.makespan, want.makespan, got.events, want.events, len(got.trace), len(want.trace))
			}
		})
	}
}

// TestPooledVsOwnedArenaParity: a run through the shared pool and a run
// through a caller-owned arena are the same simulation — only the memory
// lifetime differs.
func TestPooledVsOwnedArenaParity(t *testing.T) {
	plan := mauritiusPlan(t, 5)
	run := func(arena *Arena) allocSnapshot {
		t.Helper()
		res, err := Run(Config{
			Plan: plan, Procs: dynTeam(t, 1.3, 1.0, 1.0, 0.5), Set: allocSet(),
			Trace: true, Arena: arena,
		})
		if err != nil {
			t.Fatal(err)
		}
		return snapshotResult(res)
	}
	pooled := run(nil)
	owned := run(NewArena())
	if !owned.equal(pooled) {
		t.Errorf("owned-arena run diverged from pooled run (makespan %v vs %v, events %d vs %d)",
			owned.makespan, pooled.makespan, owned.events, pooled.events)
	}
}

// TestVerifyAgainstCompiledPlan pins the compile-once contract on the
// verify side: a Result whose plan carries the compiled flag — static,
// stolen or self-scheduled — verifies without allocating (no raster
// pass), still catches a wrong cell, and compiles the flag afresh when
// asked about a flag value the plan was not compiled from.
func TestVerifyAgainstCompiledPlan(t *testing.T) {
	f := flagspec.Mauritius
	plan := mauritiusPlan(t, 4)
	set := func() *implement.Set { return implement.NewSet(implement.ThickMarker, f.Colors()) }
	runs := map[string]func() (*Result, error){
		"static": func() (*Result, error) { return Run(Config{Plan: plan, Procs: newTeam(t, 4), Set: set()}) },
		"steal":  func() (*Result, error) { return RunSteal(Config{Plan: plan, Procs: newTeam(t, 4), Set: set()}) },
		"dynamic": func() (*Result, error) {
			return RunDynamic(DynamicConfig{Flag: f, Procs: newTeam(t, 3), Set: set()})
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Plan.Compiled().Matches(f, res.Plan.W, res.Plan.H) {
			t.Fatalf("%s: result plan does not carry the compiled flag", name)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := res.Verify(f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Verify allocated %.1f times per call, want 0", name, allocs)
		}
		clone := *f
		if err := res.Verify(&clone); err != nil {
			t.Errorf("%s: fallback verify against an equal flag: %v", name, err)
		}
		if err := res.Grid.Paint(geom.Pt{}, palette.Black); err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(f); err == nil {
			t.Errorf("%s: Verify passed a grid with a wrong cell", name)
		}
		if err := res.Verify(&clone); err == nil {
			t.Errorf("%s: fallback verify passed a grid with a wrong cell", name)
		}
	}
}

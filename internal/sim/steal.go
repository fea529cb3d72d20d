package sim

import (
	"context"
	"fmt"

	"flagsim/internal/geom"
	"flagsim/internal/workplan"
)

// Work stealing: processors start from a fixed plan (any static strategy),
// but a processor that empties its own queue steals the trailing half of
// the most-loaded teammate's queue instead of retiring. This is the
// classroom fix for load imbalance that keeps the locality of a good
// static split: a fast student finishes their slice, then walks over and
// takes work off the slowest student's pile — without the every-cell
// contention of a fully shared bag.
//
// Determinism: the victim is the processor with the most queued cells
// (ties break toward the lowest index), and the stolen cells move in plan
// order, so a fixed seed reproduces the same migrations.

// stealSource executes per-processor queues with work stealing. Like
// planSource it peeks (a selected task is consumed only when painted), so
// a victim's head cell — possibly in flight — is never stolen.
//
// Layout: each processor's queue is a head/tail window over a flat
// per-processor buffer sized to the whole plan, so steals are a copy of
// the stolen span plus two cursor updates — no slice growth during a
// run. A queue that would overflow its buffer (possible only through
// repeated re-stealing) first compacts its live window to the front,
// which keeps every buffer bounded by the total task count.
type stealSource struct {
	// bufs[pi] is processor pi's task buffer; the live queue is
	// bufs[pi][head[pi]:tail[pi]], head first.
	bufs       [][]workplan.Task
	head, tail []int
	// layerWaiters holds processors parked on a layer's completion.
	layerWaiters [][]int
	// owner maps layer*wh + y*w + x to the processor the starting plan
	// assigned (layers may overpaint a cell, so the key includes the
	// layer), so CellDone can count migrated cells independently of
	// steal batches.
	owner            []int32
	w, wh            int
	steals, migrated int
	// rec records executed tasks per proc, for the Result's plan.
	rec *assignRecorder
}

// taskKey identifies one task of a plan; overpainting layers make the
// cell alone ambiguous.
type taskKey struct {
	layer int
	cell  geom.Pt
}

// stealSourceFor rebinds the arena's stealing policy to plan.
func (a *Arena) stealSourceFor(plan *workplan.Plan) *stealSource {
	s := &a.steal
	n := plan.NumProcs()
	total := plan.TotalTasks()
	s.w, s.wh = plan.W, plan.W*plan.H
	if cap(s.bufs) < n {
		nbufs := make([][]workplan.Task, n)
		copy(nbufs, s.bufs[:cap(s.bufs)])
		s.bufs = nbufs
	} else {
		s.bufs = s.bufs[:n]
	}
	if cap(s.head) < n {
		s.head = make([]int, n)
		s.tail = make([]int, n)
	} else {
		s.head = s.head[:n]
		s.tail = s.tail[:n]
	}
	layers := len(plan.LayerCellCount)
	ownerLen := layers * s.wh
	if cap(s.owner) < ownerLen {
		s.owner = make([]int32, ownerLen)
	} else {
		s.owner = s.owner[:ownerLen]
	}
	for i, tasks := range plan.PerProc {
		if cap(s.bufs[i]) < total {
			s.bufs[i] = make([]workplan.Task, total)
		} else {
			s.bufs[i] = s.bufs[i][:total]
		}
		copy(s.bufs[i], tasks)
		s.head[i] = 0
		s.tail[i] = len(tasks)
		for _, t := range tasks {
			s.owner[t.Layer*s.wh+t.Cell.Y*s.w+t.Cell.X] = int32(i)
		}
	}
	s.layerWaiters = reuseWaiters(s.layerWaiters, layers, n)
	s.steals, s.migrated = 0, 0
	s.rec = &a.rec
	s.rec.reset(n, total)
	return s
}

// qlen returns processor v's live queue length.
func (s *stealSource) qlen(v int) int { return s.tail[v] - s.head[v] }

// pushBack appends tasks to pi's queue, compacting the live window to
// the buffer front first if the tail would overflow. pi's queue is empty
// whenever this runs (only an out-of-work processor steals), so the
// compacted window plus the stolen span always fits.
func (s *stealSource) pushBack(pi int, tasks []workplan.Task) {
	b := s.bufs[pi]
	if s.tail[pi]+len(tasks) > len(b) {
		n := copy(b, b[s.head[pi]:s.tail[pi]])
		s.head[pi], s.tail[pi] = 0, n
	}
	copy(b[s.tail[pi]:], tasks)
	s.tail[pi] += len(tasks)
}

// steal moves the trailing half of the most-loaded queue to pi, leaving
// at least the victim's head (it may already be painting). It reports
// whether anything moved.
func (s *stealSource) steal(pi int) bool {
	victim, best := -1, 1 // a queue of one cell has nothing to spare
	for v := range s.bufs {
		if v != pi && s.qlen(v) > best {
			victim, best = v, s.qlen(v)
		}
	}
	if victim == -1 {
		return false
	}
	k := s.qlen(victim) / 2 // len >= 2, so 1 <= k <= len-1: head always stays
	cut := s.tail[victim] - k
	s.pushBack(pi, s.bufs[victim][cut:s.tail[victim]])
	s.tail[victim] = cut
	s.steals++
	return true
}

// Select implements TaskSource: peek the own queue, steal when it is
// empty, retire when no teammate has anything to spare.
func (s *stealSource) Select(e *Engine, pi int) Selection {
	if s.qlen(pi) == 0 && !s.steal(pi) {
		return Selection{Kind: SelectDone}
	}
	task := s.bufs[pi][s.head[pi]]
	if dep, blocked := e.LayerBlocked(task.Layer); blocked {
		return Selection{Kind: SelectWait, Layer: dep}
	}
	return Selection{Kind: SelectTask, Task: task}
}

// Requeue implements TaskSource. Peek semantics: the task is still at the
// queue head, so there is nothing to hand back.
func (s *stealSource) Requeue(*Engine, int, workplan.Task) {}

// Park implements TaskSource: pi waits on the blocking layer.
func (s *stealSource) Park(_ *Engine, pi int, sel Selection) {
	s.layerWaiters[sel.Layer] = append(s.layerWaiters[sel.Layer], pi)
}

// CellDone implements TaskSource: consume the head task and wake
// processors parked on the layer once it completes.
func (s *stealSource) CellDone(e *Engine, pi int, task workplan.Task) {
	s.head[pi]++
	s.rec.record(pi, task)
	if s.owner[task.Layer*s.wh+task.Cell.Y*s.w+task.Cell.X] != int32(pi) {
		s.migrated++
	}
	if e.LayerRemaining(task.Layer) > 0 {
		return
	}
	// Reslice to zero, not nil, to keep the arena's waiter backing; a
	// completed layer never gains a waiter again, so the old header is
	// safe to iterate (see planSource.CellDone).
	waiters := s.layerWaiters[task.Layer]
	s.layerWaiters[task.Layer] = waiters[:0]
	for _, w := range waiters {
		e.Wake(w)
	}
}

// HasMore implements TaskSource.
func (s *stealSource) HasMore(_ *Engine, pi int) bool {
	return s.qlen(pi) > 0
}

// CheckComplete implements TaskSource.
func (s *stealSource) CheckComplete(*Engine) error {
	for i := range s.bufs {
		if s.qlen(i) != 0 {
			return fmt.Errorf("sim: deadlock: processor %d stranded with %d stolen-proof tasks", i, s.qlen(i))
		}
	}
	return nil
}

// RunSteal executes the plan under work stealing. The Config is the same
// as Run's; the plan's per-processor split is the starting assignment,
// and the Result's plan records who actually painted what.
func RunSteal(cfg Config) (*Result, error) { return RunStealCtx(nil, cfg) }

// RunStealCtx is RunSteal with a cancellation context (see RunCtx).
func RunStealCtx(ctx context.Context, cfg Config) (*Result, error) {
	a, pooled := acquireArena(cfg.Arena)
	if pooled {
		defer arenaPool.Put(a)
	}
	if err := a.validateStatic(&cfg); err != nil {
		return nil, err
	}
	source := a.stealSourceFor(cfg.Plan)
	e := a.bind(engineConfig{
		ctx:            ctx,
		source:         source,
		procs:          cfg.Procs,
		set:            cfg.Set,
		hold:           cfg.Hold,
		setup:          cfg.Setup,
		trace:          cfg.Trace,
		probes:         cfg.Probes,
		faults:         cfg.Faults,
		w:              cfg.Plan.W,
		h:              cfg.Plan.H,
		layerDeps:      cfg.Plan.LayerDeps,
		layerCellCount: cfg.Plan.LayerCellCount,
	})
	makespan, err := e.run()
	if err != nil {
		return nil, err
	}
	if a.stealPlanCached != cfg.Plan {
		a.stealPlanCached = cfg.Plan
		a.stratSteal = cfg.Plan.Strategy + "+steal"
	}
	var plan *workplan.Plan
	if a.owned {
		plan = &a.synthPlan
	} else {
		plan = &workplan.Plan{}
	}
	*plan = workplan.Plan{
		FlagName: cfg.Plan.FlagName, W: cfg.Plan.W, H: cfg.Plan.H,
		Strategy:       a.stratSteal,
		PerProc:        a.rec.materialize(a, len(cfg.Procs)),
		LayerDeps:      cfg.Plan.LayerDeps,
		LayerCellCount: cfg.Plan.LayerCellCount,
		Overpainted:    cfg.Plan.Overpainted,
	}
	plan.InheritCompiled(cfg.Plan)
	res := a.buildResult(e, plan, makespan)
	res.Steals = source.steals
	res.Migrated = source.migrated
	e.notifyResult(res)
	return res, nil
}

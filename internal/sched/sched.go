// Package sched provides load-balancing schedulers that build workplans
// beyond the paper's hand-assigned scenarios: LPT (longest processing time
// first) static balancing, fixed-size chunk self-scheduling, and guided
// self-scheduling with geometrically shrinking chunks.
//
// These are the standard PDC scheduling disciplines the activity's
// discussion leads toward ("how having extra resources would reduce the
// contention", load balancing in the Webster variation); they drive the
// E19 decomposition ablation against the scenario decompositions.
//
// All schedulers operate on estimated unit cost per cell (every cell costs
// the same a priori, as in the classroom), produce workplan.Plan values,
// and inherit the plan Verify/Validate oracles.
package sched

import (
	"fmt"
	"sort"

	"flagsim/internal/flagspec"
	"flagsim/internal/workplan"
)

// span is a contiguous run of the sequential task stream, stream[lo:hi].
// As a scheduling unit it is a row region; as an assignment it is the
// run a processor grabs.
type span struct{ lo, hi int }

// stream returns the flag's tasks in layer-then-reading order (the
// sequential plan's single task list) and the compiled flag behind them.
func stream(f *flagspec.Flag, w, h int) ([]workplan.Task, *flagspec.Compiled, error) {
	seq, err := workplan.Sequential(f, w, h)
	if err != nil {
		return nil, nil, err
	}
	return seq.PerProc[0], seq.Compiled(), nil
}

// regionsOf splits the stream into row runs of one layer — the natural
// "color this row of the stripe" units students actually divide work
// into.
func regionsOf(tasks []workplan.Task) []span {
	var out []span
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].Layer == tasks[lo].Layer && tasks[hi].Cell.Y == tasks[lo].Cell.Y {
			hi++
		}
		out = append(out, span{lo, hi})
		lo = hi
	}
	return out
}

// assemble gives processor owner[k] the tasks of spans[k], each
// processor's list allocated at its exact length and ordered by
// sortTasks, and builds the plan.
func assemble(c *flagspec.Compiled, strategy string, p int, tasks []workplan.Task, spans []span, owner []int) (*workplan.Plan, error) {
	sizes := make([]int, p)
	for k, s := range spans {
		sizes[owner[k]] += s.hi - s.lo
	}
	perProc := make([][]workplan.Task, p)
	for pi, n := range sizes {
		if n > 0 {
			perProc[pi] = make([]workplan.Task, 0, n)
		}
	}
	for k, s := range spans {
		perProc[owner[k]] = append(perProc[owner[k]], tasks[s.lo:s.hi]...)
	}
	for pi := range perProc {
		sortTasks(perProc[pi])
	}
	return workplan.New(c, strategy, perProc)
}

// leastLoaded returns the processor with the smallest load, lowest
// index on ties.
func leastLoaded(load []int) int {
	pi := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[pi] {
			pi = i
		}
	}
	return pi
}

// LPT assigns row regions to p processors longest-first onto the least
// loaded processor — the classic static balancing heuristic. Within each
// processor, tasks are ordered by layer so dependencies remain
// satisfiable.
func LPT(f *flagspec.Flag, w, h, p int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	tasks, c, err := stream(f, w, h)
	if err != nil {
		return nil, err
	}
	regions := regionsOf(tasks)
	// Stable sort: longest first; regions are in layer-then-row order,
	// so ties keep layer order, then first cell, for determinism.
	sort.SliceStable(regions, func(a, b int) bool {
		return regions[a].hi-regions[a].lo > regions[b].hi-regions[b].lo
	})
	load := make([]int, p)
	owner := make([]int, len(regions))
	for k, r := range regions {
		pi := leastLoaded(load)
		owner[k] = pi
		load[pi] += r.hi - r.lo
	}
	return assemble(c, fmt.Sprintf("lpt(p=%d)", p), p, tasks, regions, owner)
}

// Chunked models fixed-size chunk self-scheduling: an idle processor takes
// the next chunk of chunk cells from the global reading-order stream. With
// unit cost estimates this reduces to round-robin chunk dealing, which is
// exactly how chunk self-scheduling behaves when all workers run at the
// same speed.
func Chunked(f *flagspec.Flag, w, h, p, chunk int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("sched: chunk size %d", chunk)
	}
	tasks, c, err := stream(f, w, h)
	if err != nil {
		return nil, err
	}
	var grabs []span
	var owner []int
	for i := 0; i < len(tasks); i += chunk {
		grabs = append(grabs, span{i, min(i+chunk, len(tasks))})
		owner = append(owner, (i/chunk)%p)
	}
	return assemble(c, fmt.Sprintf("chunked(p=%d,chunk=%d)", p, chunk), p, tasks, grabs, owner)
}

// Guided models guided self-scheduling: each grab takes
// ceil(remaining / p) cells, so chunks shrink geometrically and the tail
// is finely balanced.
func Guided(f *flagspec.Flag, w, h, p int) (*workplan.Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: %d processors", p)
	}
	tasks, c, err := stream(f, w, h)
	if err != nil {
		return nil, err
	}
	var grabs []span
	var owner []int
	load := make([]int, p)
	for i := 0; i < len(tasks); {
		// ceil(remaining / p) is at least 1 while cells remain.
		take := (len(tasks) - i + p - 1) / p
		// The next grab goes to the first idle worker — with equal
		// speeds, the least-loaded processor (lowest index on ties).
		pi := leastLoaded(load)
		grabs = append(grabs, span{i, i + take})
		owner = append(owner, pi)
		load[pi] += take
		i += take
	}
	return assemble(c, fmt.Sprintf("guided(p=%d)", p), p, tasks, grabs, owner)
}

// sortTasks orders a processor's tasks by layer (dependency safety), then
// reading order.
func sortTasks(tasks []workplan.Task) {
	sort.SliceStable(tasks, func(a, b int) bool {
		if tasks[a].Layer != tasks[b].Layer {
			return tasks[a].Layer < tasks[b].Layer
		}
		if tasks[a].Cell.Y != tasks[b].Cell.Y {
			return tasks[a].Cell.Y < tasks[b].Cell.Y
		}
		return tasks[a].Cell.X < tasks[b].Cell.X
	})
}

// Imbalance returns (max load − min load) / mean load over processors
// with any tasks, a dimensionless balance score for comparing schedulers.
func Imbalance(p *workplan.Plan) float64 {
	if len(p.PerProc) == 0 {
		return 0
	}
	minL, maxL, sum, n := -1, 0, 0, 0
	for _, tasks := range p.PerProc {
		l := len(tasks)
		sum += l
		n++
		if l > maxL {
			maxL = l
		}
		if minL == -1 || l < minL {
			minL = l
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(n)
	return float64(maxL-minL) / mean
}

package main

// Spans for the traced run. Each client goroutine owns a tracer, so
// recording takes no lock; spans stay in memory and are written out when
// the benchmark exits. A span's self time is its duration minus the
// durations of its children (a replay's children never overlap).

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type stage uint8

// The stages, in request-path order. server.request is the client-side
// HTTP round trip; replay is the root of the same request's replay
// through the layers' public functions, and dist.job the root of one job
// the benchmark executes as the fleet's worker. Side spans are separate
// calls that price work done inside a layer the benchmark cannot split
// from outside — grid.raster and flagspec.overlaps inside plan and
// verify, the dist.* store and queue calls inside flagdispd's handlers —
// so they are kept off the blocking path and nothing is counted twice.
const (
	stHTTP stage = iota
	stReplay
	stDecode
	stGenerate
	stKey
	stBatch
	stLease
	stJob
	stCompute
	stLookup
	stMaterialize
	stPlan
	stEngine
	stVerify
	stMemo
	stRowEncode
	stEncode
	stReport
	stRaster
	stOverlaps
	stEnqueue
	stStorePut
	stStoreGet
	stCodec
	nStages
)

var stageNames = [nStages]string{
	"server.request", "replay", "wire.decode", "flaggen.generate", "sweep.key",
	"sweep.batch", "dist.lease", "dist.job", "sweep.compute", "flagspec.lookup",
	"sweep.materialize", "workplan.plan", "sim.engine", "sim.verify", "sweep.memo",
	"sweep.row_encode", "wire.encode", "dist.report", "grid.raster",
	"flagspec.overlaps", "dist.enqueue", "dist.store_put", "dist.store_get", "dist.codec",
}

func (s stage) String() string { return stageNames[s] }

func (s stage) side() bool { return s >= stRaster }

type span struct {
	req        int32
	parent     int32 // index in the tracer's spans, -1 for a root
	name       stage
	start, end int64 // ns since the tracer's base
}

// tracer records one goroutine's spans. A nil tracer records nothing
// (the replay of priming traffic).
type tracer struct {
	base  time.Time
	spans []span
	// from drops spans that started before it (ns since base) from the
	// stats: the fleet worker traces priming jobs too.
	from int64
}

func (t *tracer) begin(name stage, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{req: req, parent: parent, name: name, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
}

// stageStats aggregates spans per stage.
type stageStats struct {
	calls  [nStages]int
	selfNS [nStages]int64
	durNS  [nStages]int64
	// requests and httpNS count the client-side round trips; blockNS is
	// the self time of every span on the blocking path. Their difference
	// is the server's own overhead.
	requests        int
	httpNS, blockNS int64
}

// add folds one tracer's spans into the stats.
func (st *stageStats) add(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		if sp.start < t.from {
			continue
		}
		d := sp.end - sp.start
		st.calls[sp.name]++
		st.durNS[sp.name] += d
		st.selfNS[sp.name] += d - child[i]
		switch {
		case sp.name == stHTTP:
			st.requests++
			st.httpNS += d
		case !sp.name.side():
			st.blockNS += d - child[i]
		}
	}
}

func (st *stageStats) meanSelfUS(s stage) float64 {
	if st.calls[s] == 0 {
		return 0
	}
	return float64(st.selfNS[s]) / float64(st.calls[s]) / 1e3
}

func (st *stageStats) meanDurUS(s stage) float64 {
	if st.calls[s] == 0 {
		return 0
	}
	return float64(st.durNS[s]) / float64(st.calls[s]) / 1e3
}

func (st *stageStats) overheadUS() float64 {
	if st.requests == 0 {
		return 0
	}
	return float64(st.httpNS-st.blockNS) / float64(st.requests) / 1e3
}

// printTable writes the per-workload stage table: for each blocking-path
// stage its calls per round, mean self time per call, self time per
// request and share of the client-observed request latency; the HTTP
// loopback floor inside server.overhead; then the side spans.
func (st *stageStats) printTable(w io.Writer, workload string, round0 *stageStats, loopback float64) {
	if st.requests == 0 {
		return
	}
	perReq := func(ns int64) float64 { return float64(ns) / float64(st.requests) / 1e3 }
	lat := perReq(st.httpNS)
	fmt.Fprintf(w, "stage table %s (%d traced requests; self time per request, share of request latency)\n", workload, st.requests)
	fmt.Fprintf(w, "  %-20s %12s %12s %10s %8s\n", "stage", "calls/round", "us/call", "us/req", "share")
	for s := stReplay; s < nStages; s++ {
		if s.side() || st.calls[s] == 0 {
			continue
		}
		self := perReq(st.selfNS[s])
		fmt.Fprintf(w, "  %-20s %12d %12.2f %10.2f %7.1f%%\n", s, round0.calls[s], st.meanSelfUS(s), self, 100*self/lat)
	}
	fmt.Fprintf(w, "  %-20s %12s %12s %10.2f %7.1f%%\n", "server.overhead", "", "", st.overheadUS(), 100*st.overheadUS()/lat)
	fmt.Fprintf(w, "    %-18s %12s %12s %10.2f %7.1f%%   (same requests to an empty handler)\n", "of which loopback", "", "", loopback, 100*loopback/lat)
	fmt.Fprintf(w, "  %-20s %12s %12s %10.2f %7.1f%%\n", "= server.request", "", "", lat, 100.0)
	for s := stage(0); s < nStages; s++ {
		if s.side() && st.calls[s] > 0 {
			fmt.Fprintf(w, "  side %-15s %12d %12.2f   (separate call)\n", s, round0.calls[s], st.meanDurUS(s))
		}
	}
}

// writeSpans writes every recorded span, one per line, to path.
func writeSpans(path string, tracers [][]*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "round\tclient\treq\tspan\tparent\tname\tstart_ns\tend_ns")
	for r, round := range tracers {
		for c, t := range round {
			for i, sp := range t.spans {
				fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n", r, c, sp.req, i, sp.parent, sp.name, sp.start, sp.end)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command perfbench is flagsim's request-path benchmark. Each invocation
// runs one workload in a fresh process against an in-process flagsimd
// (or flagdispd and its workers), driven by a closed-loop generator with
// one client (and at most one connection) per CPU, and prints the
// end-to-end metrics; with -trace 1 it replays the same seeded requests
// through each layer's public functions and prints per-layer metrics and
// a stage table instead. The last line of standard output is one JSON
// object. See README.md. From the repository root:
//
//	bash perfbench/run.sh --workload run-gen-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/sweep"
)

// A run is a sequence of rounds. A round starts a fresh service (empty
// caches), sends the workload's priming requests (set-up), then measures
// a fixed number of requests. Fixed-size rounds make the memo size, and
// so the live heap, the same in every round whatever the throughput.
type workload struct {
	// perRound is the number of measured requests per round, split
	// evenly over the clients.
	perRound int
	// sampleEvery: one response in this many is verified against a
	// local run.
	sampleEvery int
	// inputs builds one client's priming and measured streams.
	inputs func(seed uint64, round, client, perClient int) (prime, measure []request)
	// fleet sends the requests to flagdispd and its workers instead of
	// flagsimd.
	fleet bool
}

// builtinSetSize is run-builtin-warm's working set: 512 distinct specs.
const builtinSetSize = 512

func workloads(seed uint64, nclients int) map[string]workload {
	set := builtinWorkingSet(seed, builtinSetSize)
	return map[string]workload{
		"run-gen-cold": {
			perRound: 4096, sampleEvery: 64,
			inputs: func(seed uint64, round, c, n int) ([]request, []request) {
				return genColdStream(seed, round, c, phasePrime, 512/nclients),
					genColdStream(seed, round, c, phaseMeasure, n)
			},
		},
		"run-builtin-warm": {
			perRound: 8192, sampleEvery: 64,
			inputs: func(seed uint64, round, c, n int) ([]request, []request) {
				var prime []request
				for i := c; i < len(set); i += nclients {
					prime = append(prime, runRequest(set[i]))
				}
				return prime, builtinWarmStream(seed, round, c, set, n)
			},
		},
		"sweep-gen-mixed": {
			perRound: 256, sampleEvery: 16,
			inputs: func(seed uint64, round, c, n int) ([]request, []request) {
				return sweepChain(seed, round, c, 16, n)
			},
		},
		"fleet-sweep-gen": {
			perRound: 128, sampleEvery: 8, fleet: true,
			inputs: func(seed uint64, round, c, n int) ([]request, []request) {
				return sweepChain(seed, round, c, 4, n)
			},
		},
	}
}

// roundResult is one round's measurements.
type roundResult struct {
	setup, wall, cpu time.Duration
	requests, specs  int
	failed           int
	latencies        []time.Duration
	heapMB           float64
	gcCycles         uint32
	cache            sweep.CacheStats // server memo, measured window only
	entries          int              // memo (flagsimd) or store (fleet) entries
	// Fleet only: rows served from the result store, rows in all, and
	// jobs the measured window enqueued.
	storeWarm, rows, enqueued int
	errs                      []string
	verified, verifyNG        int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound runs one round: nclients request streams sent by conc client
// goroutines. With tracing, each request is replayed after its response,
// and the round's spans and exact counts are returned too.
func runRound(wl workload, seed uint64, round, nclients, conc int, traced bool) (roundResult, []*tracer, replayCounts, error) {
	var rr roundResult
	perClient := wl.perRound / nclients
	prime := make([][]request, nclients)
	measure := make([][]request, nclients)
	for c := range prime {
		prime[c], measure[c] = wl.inputs(seed, round, c, perClient)
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("fleet-%d-%d", os.Getpid(), round))
	var tr *tracedRound
	var hook func(c, j int, q request, r response)
	if traced {
		var err error
		if tr, err = newTracedRound(wl, nclients, dir+"-replay"); err != nil {
			return rr, nil, replayCounts{}, err
		}
		hook = tr.replay
	}

	setupStart := time.Now()
	var svc *service
	var err error
	switch {
	case wl.fleet && traced:
		svc, err = startFleet(nclients, 0, dir, tr.worker)
	case wl.fleet:
		svc, err = startFleet(nclients, conc, dir, nil)
	default:
		svc, err = startService(nclients)
	}
	if err != nil {
		return rr, nil, replayCounts{}, err
	}
	primed := drive(svc, prime, conc, nil, hook)
	rr.setup = time.Since(setupStart)
	for _, cr := range primed {
		rr.add(cr)
	}
	var before sweep.CacheStats
	var qBefore dist.QueueStats
	if wl.fleet {
		qBefore = svc.disp.Queue().Stats()
	} else {
		before = svc.srv.Sweeper().Stats()
	}
	if traced {
		tr.measure()
	}
	sampled := func(c, j int) bool { return (j*nclients+c)%wl.sampleEvery == 0 }
	keep := func(c, j int) bool { return wl.fleet || sampled(c, j) }

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	cpu0 := cpuTime()
	t0 := time.Now()
	runs := drive(svc, measure, conc, keep, hook)
	rr.wall = time.Since(t0)
	rr.cpu = cpuTime() - cpu0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rr.gcCycles = ms.NumGC - gc0 - 1 // the forced collection is not the workload's
	rr.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if wl.fleet {
		rr.enqueued = int(svc.disp.Queue().Stats().Enqueued - qBefore.Enqueued)
		rr.entries = svc.disp.Store().Stats().Entries
	} else {
		after := svc.srv.Sweeper().Stats()
		rr.cache = sweep.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
		rr.entries = after.Entries
	}
	if err := svc.stop(); err != nil {
		return rr, nil, replayCounts{}, fmt.Errorf("service shutdown: %w", err)
	}

	for c, cr := range runs {
		rr.add(cr)
		rr.latencies = append(rr.latencies, cr.latencies...)
		for j, q := range measure[c] {
			if !cr.failedAt[j] {
				rr.specs += q.specs
			}
		}
		idx := make([]int, 0, len(cr.kept))
		for j := range cr.kept {
			idx = append(idx, j)
		}
		sort.Ints(idx)
		for _, j := range idx {
			if wl.fleet {
				var resp dist.SweepFleetResponse
				if err := json.Unmarshal(cr.kept[j], &resp); err != nil {
					rr.fail(err.Error())
					continue
				}
				rr.storeWarm += resp.Warm
				rr.rows += resp.Count
			}
			if !sampled(c, j) {
				continue
			}
			rr.verified++
			if err := verify(measure[c][j], cr.kept[j]); err != nil {
				rr.fail(err.Error())
			}
		}
	}
	if wl.fleet && rr.rows-rr.storeWarm != rr.enqueued {
		rr.fail(fmt.Sprintf("count guard: %d of %d rows computed, %d jobs enqueued",
			rr.rows-rr.storeWarm, rr.rows, rr.enqueued))
	}
	if !traced {
		return rr, nil, replayCounts{}, nil
	}
	if err := tr.finish(&rr); err != nil {
		return rr, nil, replayCounts{}, err
	}
	return rr, tr.tracers, tr.rp.counts, nil
}

// add folds one client's record of a stream into the round.
func (rr *roundResult) add(cr clientRun) {
	rr.requests += len(cr.latencies)
	rr.failed += cr.failed
	rr.errs = append(rr.errs, cr.errs...)
}

// fail records a wrong output or a broken count guard.
func (rr *roundResult) fail(msg string) {
	rr.verifyNG++
	rr.errs = append(rr.errs, msg)
}

// tailPercentiles is the ladder latency_tail_ms picks from: the highest
// percentile with at least 10 samples beyond it.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quantile returns the q-quantile (0..1) of sorted durations, nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the end-to-end view of a set of untraced rounds. Every
// metric is the median of its per-round values, so a round disturbed by
// something outside the benchmark moves none of them.
type summary struct {
	rounds               int
	requests, specs      int
	failed, verified     int
	wall, cpu            time.Duration
	p50, tail, meanMS    float64 // ms
	tailPct              float64
	tailSamples, samples int
	setupS, heapMB, gc   float64
	specsPerS, cpuMSPer  float64
	rates                []float64
}

func summarize(rs []roundResult) summary {
	var s summary
	var p50s, tails, setups, heaps, gcs, rates, cpus []float64
	var sum time.Duration
	for _, r := range rs {
		s.rounds++
		s.requests += r.requests
		s.specs += r.specs
		s.failed += r.failed + r.verifyNG
		s.wall += r.wall
		s.cpu += r.cpu
		s.verified += r.verified
		s.samples += len(r.latencies)
		lat := append([]time.Duration(nil), r.latencies...)
		sortDurations(lat)
		for _, d := range lat {
			sum += d
		}
		s.tailPct = tailPercentile(len(lat))
		s.tailSamples = len(lat)
		p50s = append(p50s, float64(quantile(lat, 0.5))/1e6)
		tails = append(tails, float64(quantile(lat, s.tailPct/100))/1e6)
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heapMB)
		gcs = append(gcs, float64(r.gcCycles))
		if r.wall > 0 && r.specs > 0 {
			rates = append(rates, float64(r.specs)/r.wall.Seconds())
			cpus = append(cpus, float64(r.cpu)/1e6/float64(r.specs))
		}
	}
	if s.samples > 0 {
		s.meanMS = float64(sum) / 1e6 / float64(s.samples)
	}
	s.p50, s.tail = median(p50s), median(tails)
	s.setupS, s.heapMB, s.gc = median(setups), median(heaps), median(gcs)
	s.specsPerS, s.cpuMSPer = median(rates), median(cpus)
	s.rates = rates
	return s
}

func (s summary) print(w *os.File, name string) {
	fmt.Fprintf(w, "%s: %d rounds, %d requests, %d specs in %.2fs measured; each metric is the median of %d per-round values\n",
		name, s.rounds, s.requests, s.specs, s.wall.Seconds(), s.rounds)
	perRound := s.samples / max(s.rounds, 1)
	fmt.Fprintf(w, "  %-16s %12.6f s      service start + priming requests\n", "setup_s", s.setupS)
	fmt.Fprintf(w, "  %-16s %12.1f 1/s    completed specs per measured second (%d specs)\n", "specs_per_s", s.specsPerS, s.specs)
	fmt.Fprintf(w, "  %-16s %12.4f ms     %d samples per round, %d in all\n", "latency_p50_ms", s.p50, perRound, s.samples)
	fmt.Fprintf(w, "  %-16s %12.4f ms     p%g of %d samples per round (%d beyond)\n",
		"latency_tail_ms", s.tail, s.tailPct, s.tailSamples, int(float64(s.tailSamples)*(100-s.tailPct)/100))
	fmt.Fprintf(w, "  %-16s %12.5f ms     process CPU (rusage) / specs; %.3fs CPU in all\n", "cpu_ms_per_spec", s.cpuMSPer, s.cpu.Seconds())
	fmt.Fprintf(w, "  %-16s %12.2f MB     after a forced GC, %d requests per round\n", "heap_live_mb", s.heapMB, s.requests/max(s.rounds, 1))
	fmt.Fprintf(w, "  %-16s %12.6f 1      %d failed / %d attempted (%d responses verified)\n",
		"failed_ratio", float64(s.failed)/float64(max(s.requests, 1)), s.failed, s.requests, s.verified)
	fmt.Fprintf(w, "  per-round specs_per_s:")
	for _, r := range s.rates {
		fmt.Fprintf(w, " %.0f", r)
	}
	fmt.Fprintln(w)
}

func (s summary) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {s.setupS, "s"},
		"specs_per_s":     {s.specsPerS, "1/s"},
		"latency_p50_ms":  {s.p50, "ms"},
		"latency_tail_ms": {s.tail, "ms"},
		"cpu_ms_per_spec": {s.cpuMSPer, "ms"},
		"heap_live_mb":    {s.heapMB, "MB"},
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: run-gen-cold, run-builtin-warm, sweep-gen-mixed, fleet-sweep-gen")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

func run(name string, seed uint64, seconds time.Duration, traced bool) int {
	nclients := runtime.NumCPU()
	wl, ok := workloads(seed, nclients)[name]
	if !ok || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", name)
		return 2
	}
	fmt.Printf("perfbench %s seed=%d clients=%d GOMAXPROCS=%d %s/%s\n",
		name, seed, nclients, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)

	var errs []string
	rounds := func(from int, budget time.Duration, conc int, traced bool) ([]roundResult, [][]*tracer, []replayCounts, error) {
		var rs []roundResult
		var trs [][]*tracer
		var rps []replayCounts
		var measured time.Duration
		minRounds := 3
		if traced {
			minRounds = 1
		} else if conc == 1 {
			minRounds = 2
		}
		for round := from; measured < budget || len(rs) < minRounds; round++ {
			r, tr, rp, err := runRound(wl, seed, round, nclients, conc, traced)
			if err != nil {
				return rs, trs, rps, err
			}
			rs = append(rs, r)
			trs = append(trs, tr)
			rps = append(rps, rp)
			errs = append(errs, r.errs...)
			measured += r.wall
		}
		return rs, trs, rps, nil
	}

	out := result{Metrics: map[string]metric{}}
	if !traced {
		rs, _, _, err := rounds(0, seconds, nclients, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		s := summarize(rs)
		s.print(os.Stdout, name)
		printCounts(name, seed, rs[0], nil)
		out.Attempted, out.Failed, out.Metrics = s.requests, s.failed, s.endToEnd()
	} else {
		// The traced rounds send the same streams as an untraced run of
		// this seed, with one client, so a request's latency holds its own
		// work and no other client's; the untraced rounds they are compared
		// with also use one client.
		trRounds, tracers, rps, err := rounds(0, seconds/2, 1, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		plain, _, _, err := rounds(len(trRounds), seconds/2, 1, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ts, us := summarize(trRounds), summarize(plain)
		fmt.Printf("traced rounds (one client; HTTP round trip, then replay):\n")
		ts.print(os.Stdout, name)
		fmt.Printf("untraced rounds in the same process (one client):\n")
		us.print(os.Stdout, name)
		out.Attempted, out.Failed = ts.requests+us.requests, ts.failed+us.failed
		_, loopReqs := wl.inputs(seed, 0, 0, wl.perRound/nclients)
		loopback, err := loopbackUS(loopReqs, 2000)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.Metrics = perLayer(os.Stdout, wl, name, trRounds, tracers, rps, ts, us, loopback)
		printCounts(name, seed, trRounds[0], &rps[0])
		path := fmt.Sprintf(".bench_build/perfbench-spans-%s.tsv", name)
		if err := writeSpans(path, tracers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out.Correct = out.Failed == 0
	if len(errs) > 0 {
		for i, e := range errs {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more errors\n", len(errs)-10)
				break
			}
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printCounts prints round 0's exact counts: for a fixed seed they
// repeat exactly from run to run, traced or not.
func printCounts(name string, seed uint64, r0 roundResult, rp *replayCounts) {
	var b strings.Builder
	fmt.Fprintf(&b, "counts %s seed=%d round=0: requests=%d", name, seed, r0.requests)
	if r0.rows > 0 {
		fmt.Fprintf(&b, " rows=%d store_warm=%d enqueued=%d store_entries=%d", r0.rows, r0.storeWarm, r0.enqueued, r0.entries)
	} else {
		fmt.Fprintf(&b, " memo_hits=%d memo_misses=%d memo_entries=%d", r0.cache.Hits, r0.cache.Misses, r0.entries)
	}
	if rp != nil {
		fmt.Fprintf(&b, " generate_calls=%d sim_events=%d encode_bytes=%d", rp.generated, rp.events, rp.encodeBytes)
	}
	fmt.Println(b.String())
}

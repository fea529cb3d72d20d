package main

// Per-layer metrics from the traced run. Times are mean self time per
// call over every traced round; counts and ratios are round 0's, which
// repeat exactly for a fixed seed.

import (
	"fmt"
	"io"
)

// timedStages are the stages reported as <name>_us plus <name>_calls;
// the fleet workload adds distStages, and distMSStages as <name>_ms plus
// <name>_calls.
var (
	timedStages = []stage{
		stDecode, stGenerate, stLookup, stKey, stMaterialize, stPlan, stEngine,
		stVerify, stMemo, stRowEncode, stEncode, stRaster, stOverlaps,
	}
	distStages   = []stage{stEnqueue, stStorePut, stStoreGet, stCodec}
	distMSStages = []stage{stLease, stReport}
)

func perLayer(w io.Writer, wl workload, name string, trRounds []roundResult, tracers [][]*tracer, rps []replayCounts, ts, us summary, loopback float64) map[string]metric {
	var all, r0 stageStats
	for r, trs := range tracers {
		for _, t := range trs {
			all.add(t)
			if r == 0 {
				r0.add(t)
			}
		}
	}
	all.printTable(w, name, &r0, loopback)

	m := map[string]metric{}
	for _, s := range timedStages {
		m[s.String()+"_us"] = metric{all.meanSelfUS(s), "us"}
		if s != stGenerate {
			m[s.String()+"_calls"] = metric{float64(r0.calls[s]), "count"}
		}
	}
	if wl.fleet {
		for _, s := range distStages {
			m[s.String()+"_us"] = metric{all.meanSelfUS(s), "us"}
			m[s.String()+"_calls"] = metric{float64(r0.calls[s]), "count"}
		}
		for _, s := range distMSStages {
			m[s.String()+"_ms"] = metric{all.meanSelfUS(s) / 1e3, "ms"}
			m[s.String()+"_calls"] = metric{float64(r0.calls[s]), "count"}
		}
		r := trRounds[0]
		m["dist.store_hit_ratio"] = metric{float64(r.storeWarm) / float64(max(r.rows, 1)), "1"}
	}
	c0 := trRounds[0].cache
	hitRatio := 0.0
	if c0.Hits+c0.Misses > 0 {
		hitRatio = float64(c0.Hits) / float64(c0.Hits+c0.Misses)
	}
	encodeBytes := 0.0
	if r0.calls[stEncode] > 0 {
		encodeBytes = float64(rps[0].encodeBytes) / float64(r0.calls[stEncode])
	}
	overheadRatio := 0.0
	if us.cpuMSPer > 0 {
		overheadRatio = ts.cpuMSPer / us.cpuMSPer
	}
	m["flaggen.generate_calls"] = metric{float64(rps[0].generated), "count"}
	m["sim.events"] = metric{float64(rps[0].events), "count"}
	m["wire.encode_bytes"] = metric{encodeBytes, "bytes"}
	m["server.overhead_us"] = metric{all.overheadUS(), "us"}
	m["http.loopback_us"] = metric{loopback, "us"}
	m["sweep.batch_wall_ms"] = metric{all.meanDurUS(stBatch) / 1e3, "ms"}
	m["sweep.memo_hit_ratio"] = metric{hitRatio, "1"}
	m["sweep.memo_entries"] = metric{float64(trRounds[0].entries), "count"}
	m["runtime.gc_cycles"] = metric{us.gc, "count"}
	m["trace.cpu_overhead_ratio"] = metric{overheadRatio, "1"}

	fmt.Fprintf(w, "tracing overhead: cpu_ms_per_spec traced %.5f vs untraced %.5f (x%.2f; the traced run also pays the replay)\n",
		ts.cpuMSPer, us.cpuMSPer, overheadRatio)
	if all.requests > 0 {
		lat := float64(all.httpNS) / float64(all.requests) / 1e3
		stages := float64(all.blockNS) / float64(all.requests) / 1e3
		fmt.Fprintf(w, "accounting: stage self times %.2f us + server.overhead %.2f us = traced request latency %.2f us (mean);"+
			" untraced mean latency %.2f us; tracing overhead on latency %.2f us\n",
			stages, all.overheadUS(), lat, us.meanMS*1e3, lat-us.meanMS*1e3)
	}
	return m
}

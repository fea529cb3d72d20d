package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"flagsim/internal/sweep"
)

// tracedRound is one traced round's replay state: a tracer and a replay
// view per client and, for the fleet, the benchmark's own worker.
type tracedRound struct {
	wl      workload
	rp      *replayer
	fr      *fleetReplay // fleet only
	clients []*clientReplay
	tracers []*tracer // one per client, then the fleet worker's
	worker  func(ctx context.Context, url string)
	before  sweep.CacheStats

	mu   sync.Mutex
	errs []string
}

func newTracedRound(wl workload, nclients int, dir string) (*tracedRound, error) {
	t := &tracedRound{wl: wl, rp: newReplayer()}
	base := time.Now()
	for c := 0; c < nclients; c++ {
		t.clients = append(t.clients, t.rp.client(nil))
		t.tracers = append(t.tracers, &tracer{base: base})
	}
	if wl.fleet {
		fr, err := newFleetReplay(dir)
		if err != nil {
			return nil, err
		}
		t.fr = fr
		wt := &tracer{base: base}
		t.tracers = append(t.tracers, wt)
		wcr := t.rp.client(wt)
		t.worker = func(ctx context.Context, url string) { wcr.work(ctx, newClient(1), url, fr) }
	}
	return t, nil
}

// replay is the per-response hook: it records the HTTP round trip as a
// span, then replays the request. Priming requests replay untraced, so
// the replay's caches see everything the server's did.
func (t *tracedRound) replay(c, j int, q request, r response) {
	cr := t.clients[c]
	req := int32(j)
	if cr.tr != nil {
		h := cr.tr.begin(stHTTP, -1, req)
		cr.tr.spans[h].start -= int64(r.latency)
		cr.tr.end(h)
	}
	var err error
	switch {
	case t.wl.fleet:
		err = cr.replayFleet(req, q.body, r.body, t.fr)
	case q.run != nil:
		err = cr.replayRun(req, q.body, r.body)
	default:
		err = cr.replaySweep(req, q.body, r.body)
	}
	if err != nil {
		t.mu.Lock()
		t.errs = append(t.errs, err.Error())
		t.mu.Unlock()
	}
}

// measure marks the end of priming: spans and counts start here.
func (t *tracedRound) measure() {
	t.before = t.rp.sweeper.Stats()
	t.rp.counts = replayCounts{}
	for c, cr := range t.clients {
		cr.tr = t.tracers[c]
	}
	if t.fr != nil {
		wt := t.tracers[len(t.clients)]
		wt.from = int64(time.Since(wt.base))
	}
}

// finish runs once the service has stopped: it records replay errors and
// checks the replay's exact counts against the server's own.
func (t *tracedRound) finish(rr *roundResult) error {
	for _, e := range t.errs {
		rr.fail(e)
	}
	c := t.rp.counts
	if c.events != c.serverEvents {
		rr.fail(fmt.Sprintf("count guard: replay computed %d engine events, the replies report %d", c.events, c.serverEvents))
	}
	if t.fr != nil {
		for _, e := range t.fr.workErr {
			rr.fail(e)
		}
		return t.fr.close()
	}
	got := t.rp.sweeper.Stats()
	// The replay memo serves its misses from the handoff tier.
	replay := sweep.CacheStats{Hits: got.Hits - t.before.Hits, Misses: got.TierHits - t.before.TierHits}
	if replay != rr.cache || got.Entries != rr.entries || got.Misses != 0 {
		rr.fail(fmt.Sprintf("count guard: replay memo %d hits, %d misses, %d entries; server %d, %d, %d",
			replay.Hits, replay.Misses, got.Entries, rr.cache.Hits, rr.cache.Misses, rr.entries))
	}
	return nil
}

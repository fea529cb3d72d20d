package main

// The traced replay: after each HTTP round trip, the client re-executes
// the same request through the layers' public functions — wire decode,
// flaggen, flagspec, sweep keys and memo, workplan, sim, wire encode —
// timing every call as a span. The replay keeps its own sweep.Sweeper, so
// its memo sees the same hits and misses as the server's. A miss is
// computed stage by stage first and handed to that Sweeper through a
// one-shot tier, so sweep.memo prices the memo's own path on a miss
// without a second compute.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"flagsim/internal/core"
	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/grid"
	"flagsim/internal/implement"
	"flagsim/internal/obs"
	"flagsim/internal/processor"
	"flagsim/internal/server"
	"flagsim/internal/sim"
	"flagsim/internal/sweep"
	"flagsim/internal/wire"
)

// handoff is a sweep.Tier that serves each stashed result once.
type handoff struct {
	mu  sync.Mutex
	res map[[sha256.Size]byte]*sim.Result
}

func (h *handoff) stash(key [sha256.Size]byte, res *sim.Result) {
	h.mu.Lock()
	h.res[key] = res
	h.mu.Unlock()
}

func (h *handoff) Get(key [sha256.Size]byte) (*sim.Result, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	res, ok := h.res[key]
	delete(h.res, key)
	return res, ok
}

// Put ignores write-through: every replay miss is stashed before the
// Sweeper runs, so the Sweeper never computes on its own.
func (h *handoff) Put([sha256.Size]byte, *sim.Result) {}

// replayer is the replay state for one round, shared by its clients.
// Client streams never share keys or generated flags, so per-client
// first-seen sets match what the server's caches saw.
type replayer struct {
	sweeper *sweep.Sweeper
	tier    *handoff
	probe   sim.Probe

	mu     sync.Mutex
	seen   map[[sha256.Size]byte]bool
	counts replayCounts
}

// replayCounts are the replay's exact counts for the count guard.
type replayCounts struct {
	generated, events, encodeBytes int
	// serverEvents sums the engine events the server reported for its
	// own misses; it must equal events.
	serverEvents int
}

func newReplayer() *replayer {
	tier := &handoff{res: map[[sha256.Size]byte]*sim.Result{}}
	return &replayer{
		sweeper: sweep.New(sweep.Options{Tier: tier}),
		tier:    tier,
		// The server installs its engine metrics probe on every compute,
		// which selects the engine's instrumented path; so does the replay.
		probe: obs.NewMetricsProbe(obs.NewRegistry()),
		seen:  map[[sha256.Size]byte]bool{},
	}
}

// clientReplay is one client's view: its tracer and the generated flags
// it has seen.
type clientReplay struct {
	*replayer
	tr    *tracer
	flags map[string]bool
}

func (rp *replayer) client(tr *tracer) *clientReplay {
	return &clientReplay{replayer: rp, tr: tr, flags: map[string]bool{}}
}

// miss reports whether key is new to the replay memo, and records it.
func (rp *replayer) miss(key [sha256.Size]byte) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.seen[key] {
		return false
	}
	rp.seen[key] = true
	return true
}

func (rp *replayer) count(generated, events, encodeBytes, serverEvents int) {
	rp.mu.Lock()
	rp.counts.generated += generated
	rp.counts.events += events
	rp.counts.encodeBytes += encodeBytes
	rp.counts.serverEvents += serverEvents
	rp.mu.Unlock()
}

// generate prices the generation the server paid on this flag's first
// resolution (inside RunRequest.Spec) by calling the generator directly.
func (cr *clientReplay) generate(parent, req int32, name string) (int, error) {
	if !flaggen.IsName(name) || cr.flags[name] {
		return 0, nil
	}
	cr.flags[name] = true
	ref, err := flaggen.ParseName(name)
	if err != nil {
		return 0, err
	}
	g := cr.tr.begin(stGenerate, parent, req)
	_, err = flaggen.Generate(ref.Seed, ref.Variant)
	cr.tr.end(g)
	return 1, err
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// compute runs one memo miss stage by stage, exactly as sweep.Spec.run
// does for a static or stealing spec.
func (cr *clientReplay) compute(parent, req int32, sp sweep.Spec, probes []sim.Probe) (*sim.Result, error) {
	if sp.Exec != sweep.ExecStatic && sp.Exec != sweep.ExecSteal || sp.Faults != nil || len(sp.Skills) > 0 || sp.Jitter != 0 {
		return nil, fmt.Errorf("replay: unsupported spec %s", sp.Label())
	}
	tr := cr.tr
	c := tr.begin(stCompute, parent, req)
	defer tr.end(c)

	s := tr.begin(stLookup, c, req)
	f, err := flagspec.Lookup(sp.Flag)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin(stMaterialize, c, req)
	scen, err := core.ScenarioByID(sp.Scenario)
	if err == nil && sp.Workers > 0 {
		scen.Workers = sp.Workers
	}
	var team []*processor.Processor
	if err == nil {
		team, err = core.NewTeam(scen.Workers, sp.Seed)
	}
	set := implement.NewSetN(sp.Kind, f.Colors(), max(sp.PerColor, 1))
	tr.end(s)
	if err != nil {
		return nil, err
	}

	w, h := size(f, sp)
	s = tr.begin(stPlan, c, req)
	plan, err := scen.Plan(f, w, h)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if len(team) < plan.NumProcs() {
		return nil, fmt.Errorf("replay: %s wants %d workers, team has %d", sp.Label(), plan.NumProcs(), len(team))
	}

	cfg := sim.Config{
		Plan: plan, Procs: team[:plan.NumProcs()], Set: set,
		Hold: sp.Hold, Setup: sp.Setup, Probes: probes,
	}
	s = tr.begin(stEngine, c, req)
	var res *sim.Result
	if sp.Exec == sweep.ExecSteal {
		res, err = sim.RunStealCtx(context.Background(), cfg)
	} else {
		res, err = sim.RunCtx(context.Background(), cfg)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin(stVerify, c, req)
	err = res.Verify(f)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// size is the raster size a spec runs at: its override, else the flag's
// handout size.
func size(f *flagspec.Flag, sp sweep.Spec) (w, h int) {
	w, h = sp.W, sp.H
	if w <= 0 {
		w = f.DefaultW
	}
	if h <= 0 {
		h = f.DefaultH
	}
	return w, h
}

// side prices, by separate calls after the request's replay, the two
// pieces of flag work that plan and verify repeat inside themselves.
func (cr *clientReplay) side(req int32, sp sweep.Spec) error {
	f, err := flagspec.Lookup(sp.Flag)
	if err != nil {
		return err
	}
	w, h := size(f, sp)
	s := cr.tr.begin(stRaster, -1, req)
	_, err = grid.Rasterize(f, w, h)
	cr.tr.end(s)
	s = cr.tr.begin(stOverlaps, -1, req)
	f.Overlaps(w, h)
	cr.tr.end(s)
	return err
}

// replayRun replays one /v1/run request and checks the server's reply
// against the replay's own result.
func (cr *clientReplay) replayRun(req int32, body, reply []byte) error {
	tr := cr.tr
	root := tr.begin(stReplay, -1, req)
	d := tr.begin(stDecode, root, req)
	var rr wire.RunRequest
	err := decodeStrict(body, &rr)
	generated := 0
	if err == nil {
		generated, err = cr.generate(d, req, rr.Flag)
	}
	var sp sweep.Spec
	if err == nil {
		sp, err = rr.Spec()
	}
	tr.end(d)
	if err != nil {
		return err
	}

	k := tr.begin(stKey, root, req)
	key := sp.Key()
	tr.end(k)

	var computed *sim.Result
	if cr.miss(key) {
		var collector sim.SpanCollector
		if computed, err = cr.compute(root, req, sp, []sim.Probe{cr.probe, &collector}); err != nil {
			return err
		}
		cr.tier.stash(key, computed)
	}

	m := tr.begin(stMemo, root, req)
	batch := cr.sweeper.Run(context.Background(), []sweep.Spec{sp})
	tr.end(m)
	run := batch.Runs[0]
	if run.Err != nil {
		return run.Err
	}

	// The replay memo serves its own misses from the handoff tier, which
	// it reports as hits; the server reports a miss.
	hit := computed == nil
	e := tr.begin(stEncode, root, req)
	out, err := json.Marshal(server.RunResponse{
		RunID: "0000000000000000", Spec: sp.Label(), CacheHit: hit,
		ElapsedNS: int64(run.Elapsed), Result: wire.NewSimResult(run.Result),
	})
	tr.end(e)
	tr.end(root)
	if err != nil {
		return err
	}

	events := 0
	if computed != nil {
		events = int(computed.Events)
		if err := cr.side(req, sp); err != nil {
			return err
		}
	}
	var got runReply
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("run reply: %w", err)
	}
	want, err := wire.MarshalResult(run.Result)
	if err != nil {
		return err
	}
	if got.Spec != sp.Label() || got.CacheHit != hit || !bytes.Equal(got.Result, want) {
		return fmt.Errorf("replay of %s differs from the server's reply (cache_hit %v vs %v)", sp.Label(), got.CacheHit, hit)
	}
	serverEvents := 0
	if !got.CacheHit {
		var res wire.SimResult
		if err := json.Unmarshal(got.Result, &res); err != nil {
			return err
		}
		serverEvents = int(res.Events)
	}
	cr.count(generated, events, len(out), serverEvents)
	return nil
}

// replaySweep replays one /v1/sweep request. Keys for the replay memo's
// bookkeeping are taken before the replay starts, so they cost no span.
func (cr *clientReplay) replaySweep(req int32, body, reply []byte) error {
	var pre wire.SweepRequest
	if err := decodeStrict(body, &pre); err != nil {
		return err
	}
	preSpecs, err := pre.Specs()
	if err != nil {
		return err
	}
	missing := make([]bool, len(preSpecs))
	for i, sp := range preSpecs {
		missing[i] = cr.miss(sp.Key())
	}

	tr := cr.tr
	root := tr.begin(stReplay, -1, req)
	d := tr.begin(stDecode, root, req)
	var sr wire.SweepRequest
	err = decodeStrict(body, &sr)
	generated := 0
	for _, name := range sr.Flags {
		if err != nil {
			break
		}
		var n int
		n, err = cr.generate(d, req, name)
		generated += n
	}
	var specs []sweep.Spec
	if err == nil {
		specs, err = sr.Specs()
	}
	tr.end(d)
	if err != nil {
		return err
	}

	b := tr.begin(stBatch, root, req)
	events := 0
	for i, sp := range specs {
		if !missing[i] {
			continue
		}
		res, err := cr.compute(b, req, sp, []sim.Probe{cr.probe})
		if err != nil {
			return err
		}
		cr.tier.stash(sp.Key(), res)
		events += int(res.Events)
	}
	m := tr.begin(stMemo, b, req)
	batch := cr.sweeper.Run(context.Background(), specs)
	tr.end(m)
	tr.end(b)

	resp := server.SweepResponse{
		Count: len(batch.Runs), Workers: batch.Workers, WallNS: int64(batch.Wall),
		Hits: batch.Cache.Hits, Misses: batch.Cache.TierHits,
	}
	for i, run := range batch.Runs {
		r := tr.begin(stRowEncode, root, req)
		row := wire.SweepRunRow{Spec: run.Spec.Label(), CacheHit: !missing[i]}
		if run.Err != nil {
			resp.Failed++
			row.Err = run.Err.Error()
		} else {
			row.MakespanNS = int64(run.Result.Makespan)
			row.Events = run.Result.Events
			row.GridSHA256 = gridSHA(run.Result)
		}
		resp.Runs = append(resp.Runs, row)
		tr.end(r)
	}
	e := tr.begin(stEncode, root, req)
	out, err := json.Marshal(resp)
	tr.end(e)
	tr.end(root)
	if err != nil {
		return err
	}

	for i, sp := range specs {
		if missing[i] {
			if err := cr.side(req, sp); err != nil {
				return err
			}
		}
	}
	var got server.SweepResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("sweep reply: %w", err)
	}
	if got.Count != resp.Count || len(got.Runs) != len(resp.Runs) || got.Failed != 0 || resp.Failed != 0 {
		return fmt.Errorf("replayed sweep differs from the server's reply")
	}
	serverEvents := 0
	for i, row := range got.Runs {
		if row != resp.Runs[i] {
			return fmt.Errorf("replayed sweep row %d (%s) differs from the server's reply", i, row.Spec)
		}
		if !row.CacheHit {
			serverEvents += int(row.Events)
		}
	}
	cr.count(generated, events, len(out), serverEvents)
	return nil
}

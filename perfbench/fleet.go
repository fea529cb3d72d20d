package main

// The traced fleet run. The benchmark itself is the fleet's only worker:
// it leases, executes and reports jobs over flagdispd's worker API,
// timing each round trip and each stage of the compute. After each sweep
// reply the client replays the dispatcher's queue and store work for
// that request against a queue and store of its own, as side spans.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/sim"
	"flagsim/internal/wire"
)

// fleetReplay is one round's dispatcher-side replay state, and the
// results the benchmark's worker computed, by key.
type fleetReplay struct {
	dir   string
	store *dist.ResultStore
	queue *dist.Queue

	mu      sync.Mutex
	results map[dist.Key]fleetResult
	workErr []string
}

type fleetResult struct {
	res *sim.Result
	raw []byte
}

func newFleetReplay(dir string) (*fleetReplay, error) {
	store, err := dist.OpenResultStore(dir)
	if err != nil {
		return nil, err
	}
	queue, err := dist.OpenQueue(dir, store, time.Now)
	if err != nil {
		return nil, err
	}
	return &fleetReplay{dir: dir, store: store, queue: queue, results: map[dist.Key]fleetResult{}}, nil
}

func (fr *fleetReplay) close() error {
	err := fr.queue.Close()
	if rerr := os.RemoveAll(fr.dir); err == nil {
		err = rerr
	}
	return err
}

func (fr *fleetReplay) fail(err error) {
	fr.mu.Lock()
	fr.workErr = append(fr.workErr, err.Error())
	fr.mu.Unlock()
}

// postJSON posts in as JSON and returns the status and body.
func postJSON(ctx context.Context, client *http.Client, url string, in any) (int, []byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// work is the benchmark's worker loop: lease, execute, report, until ctx
// is canceled. Empty polls are not spans; their waiting shows in
// server.overhead.
func (cr *clientReplay) work(ctx context.Context, client *http.Client, url string, fr *fleetReplay) {
	var reg dist.RegisterResponse
	status, raw, err := postJSON(ctx, client, url+"/v1/workers/register", dist.RegisterRequest{Name: "perfbench", Slots: 1})
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(raw, &reg)
	} else if err == nil {
		err = fmt.Errorf("register: status %d", status)
	}
	if err != nil {
		if ctx.Err() == nil {
			fr.fail(err)
		}
		return
	}
	tr := cr.tr
	for ctx.Err() == nil {
		l := tr.begin(stLease, -1, -1)
		status, raw, err := postJSON(ctx, client, url+"/v1/workers/lease", dist.LeaseRequest{WorkerID: reg.WorkerID, TTLMS: 10000})
		if err != nil || status != http.StatusOK {
			tr.spans = tr.spans[:l]
			if err == nil && status != http.StatusNoContent {
				fr.fail(fmt.Errorf("lease: status %d", status))
			}
			time.Sleep(fleetPoll)
			continue
		}
		tr.end(l)
		if err := cr.execute(ctx, client, url, reg.WorkerID, raw, fr); err != nil && ctx.Err() == nil {
			fr.fail(err)
		}
	}
}

// execute runs one leased job and reports it.
func (cr *clientReplay) execute(ctx context.Context, client *http.Client, url, workerID string, raw []byte, fr *fleetReplay) error {
	tr := cr.tr
	job := tr.begin(stJob, -1, -1)
	defer tr.end(job)

	s := tr.begin(stDecode, job, -1)
	var lease dist.LeaseResponse
	err := json.Unmarshal(raw, &lease)
	sp, serr := lease.Job.Req.Spec()
	tr.end(s)
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}

	t0 := time.Now()
	res, err := cr.compute(job, -1, sp, []sim.Probe{cr.probe})
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	s = tr.begin(stEncode, job, -1)
	out, err := wire.MarshalResult(res)
	tr.end(s)
	if err != nil {
		return err
	}
	fr.mu.Lock()
	fr.results[lease.Job.Key()] = fleetResult{res: res, raw: out}
	fr.mu.Unlock()

	s = tr.begin(stReport, job, -1)
	status, _, err := postJSON(ctx, client, url+"/v1/workers/report", dist.ReportRequest{
		LeaseID: lease.LeaseID, WorkerID: workerID, Key: lease.Job.KeyHex,
		RunID: lease.RunID, ElapsedNS: int64(elapsed), Result: out,
	})
	tr.end(s)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("report: status %d", status)
	}
	return err
}

// replayFleet replays the dispatcher's queue and store work for one
// sweep reply as side spans, and checks the reply's rows against the
// worker's results.
func (cr *clientReplay) replayFleet(req int32, body, reply []byte, fr *fleetReplay) error {
	var sr wire.SweepRequest
	if err := decodeStrict(body, &sr); err != nil {
		return err
	}
	reqs, err := sr.Expand()
	if err != nil {
		return err
	}
	var got dist.SweepFleetResponse
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("fleet reply: %w", err)
	}
	if len(got.Runs) != len(reqs) || got.Failed != 0 {
		return fmt.Errorf("fleet reply: %d rows, %d failed; want %d rows", len(got.Runs), got.Failed, len(reqs))
	}
	jobs := make([]dist.Job, len(reqs))
	var cold []dist.Job
	for i, r := range reqs {
		if jobs[i], err = dist.NewJob(r); err != nil {
			return err
		}
		if !got.Runs[i].CacheHit {
			cold = append(cold, jobs[i])
		}
	}
	tr := cr.tr
	s := tr.begin(stEnqueue, -1, req)
	_, _, err = fr.queue.Enqueue(cold)
	tr.end(s)
	if err != nil {
		return err
	}
	events, serverEvents := 0, 0
	for _, job := range cold {
		fr.mu.Lock()
		r, ok := fr.results[job.Key()]
		fr.mu.Unlock()
		if !ok {
			return fmt.Errorf("fleet: %s computed by no worker", job.Label())
		}
		events += int(r.res.Events)
		s = tr.begin(stStorePut, -1, req)
		err := fr.store.Put(job.Key(), r.raw)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(stCodec, -1, req)
		enc, err := dist.EncodeResult(r.res)
		if err == nil {
			_, err = dist.DecodeResult(enc)
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	for i, job := range jobs {
		s = tr.begin(stStoreGet, -1, req)
		raw, ok := fr.store.Get(job.Key())
		tr.end(s)
		var res wire.SimResult
		if !ok || json.Unmarshal(raw, &res) != nil {
			return fmt.Errorf("fleet: replay store has no result for %s", job.Label())
		}
		row := got.Runs[i]
		if row.Spec != job.Label() || row.Events != res.Events || row.MakespanNS != res.MakespanNS || row.GridSHA256 != res.GridSHA256 {
			return fmt.Errorf("fleet row %d (%s) differs from the worker's result", i, row.Spec)
		}
		if !row.CacheHit {
			serverEvents += int(row.Events)
		}
	}
	cr.count(0, events, 0, serverEvents)
	return nil
}

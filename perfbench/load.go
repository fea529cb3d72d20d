package main

// The system under test and the closed-loop load generator. Each round
// starts a fresh in-process flagsimd (internal/server), or flagdispd and
// its workers (internal/dist), on a loopback listener, so every cache
// starts empty; client goroutines then each send their own request
// streams, one request at a time, over at most nclients keep-alive
// connections.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"flagsim/internal/dist"
	"flagsim/internal/server"
)

// service is the system under test — one flagsimd, or one flagdispd
// with its workers — and the client that drives it.
type service struct {
	url    string
	client *http.Client
	srv    *server.Server   // flagsimd workloads
	disp   *dist.Dispatcher // the fleet workload
	stopFn func() error
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func startService(nclients int) (*service, error) {
	srv := server.New(server.Config{})
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return &service{
		url: url, client: newClient(nclients), srv: srv,
		stopFn: func() error { cancel(); return <-done },
	}, nil
}

// fleetPoll is the workers' idle poll interval. flagworkd's 200ms
// default would put a sleep, not the fleet, on the request path of a
// closed loop that drains the queue after every sweep.
const fleetPoll = 2 * time.Millisecond

// startFleet starts flagdispd on a fresh data directory and nworkers
// in-process flagworkd workers, each executing one job at a time. A
// non-nil extra runs as one more worker until its ctx is canceled.
func startFleet(nclients, nworkers int, dir string, extra func(ctx context.Context, url string)) (*service, error) {
	disp, err := dist.NewDispatcher(dist.DispatcherConfig{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		disp.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- disp.Serve(ctx, ln) }()
	var wg sync.WaitGroup
	for i := 0; i < nworkers; i++ {
		w := dist.NewWorker(dist.WorkerConfig{
			Dispatcher: url, Name: fmt.Sprintf("perfbench-%d", i), Slots: 1,
			PollInterval: fleetPoll, Client: newClient(1), DisableTrace: true,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // it only returns, nil or ctx.Err(), once ctx is canceled
		}()
	}
	if extra != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra(ctx, url)
		}()
	}
	return &service{
		url: url, client: newClient(nclients), disp: disp,
		stopFn: func() error {
			cancel()
			wg.Wait()
			err := <-done
			if cerr := disp.Close(); err == nil {
				err = cerr
			}
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			return err
		},
	}, nil
}

// stop shuts the service down and waits until every goroutine it started
// has returned.
func (s *service) stop() error {
	err := s.stopFn()
	s.client.CloseIdleConnections()
	return err
}

// newClient bounds the connection pool at nclients: the generator never
// opens more connections than it has clients.
func newClient(nclients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nclients,
			MaxIdleConnsPerHost: nclients,
			DisableCompression:  true,
		},
	}
}

// response is what the loop hands to a per-request hook; body is only
// valid during the call.
type response struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// post sends one request and reads the whole reply into buf.
func post(client *http.Client, url string, q request, buf *bytes.Buffer) response {
	req, err := http.NewRequest(http.MethodPost, url+q.path, bytes.NewReader(q.body))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return response{err: err, latency: time.Since(start)}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, body: buf.Bytes(), latency: time.Since(start), err: err}
}

// failedLatency is recorded for a failed request, so it counts as
// missing any latency limit.
const failedLatency = time.Hour

// clientRun is one client's record of its stream.
type clientRun struct {
	latencies []time.Duration
	failed    int
	failedAt  map[int]bool
	errs      []string
	kept      map[int][]byte // sampled response bodies by stream index
}

// drive sends every stream with conc client goroutines — client g sends
// streams g, g+conc, ... in turn — and returns when all have finished.
// keep selects the responses whose bodies are retained for verification
// after the window; after, when non-nil, runs on the client goroutine
// after each response (the traced replay).
func drive(s *service, streams [][]request, conc int, keep func(c, j int) bool, after func(c, j int, q request, r response)) []clientRun {
	out := make([]clientRun, len(streams))
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c < len(streams); c += conc {
				send(s, streams[c], &out[c], func(j int) bool { return keep != nil && keep(c, j) },
					func(j int, q request, r response) {
						if after != nil {
							after(c, j, q, r)
						}
					})
			}
		}(g)
	}
	wg.Wait()
	return out
}

// send sends one stream in order, one request at a time.
func send(s *service, stream []request, cr *clientRun, keep func(j int) bool, after func(j int, q request, r response)) {
	cr.latencies = make([]time.Duration, 0, len(stream))
	cr.kept = map[int][]byte{}
	cr.failedAt = map[int]bool{}
	var buf bytes.Buffer
	for j, q := range stream {
		r := post(s.client, s.url, q, &buf)
		if r.err == nil && r.status != http.StatusOK {
			r.err = fmt.Errorf("%s: status %d: %s", q.path, r.status, bytes.TrimSpace(r.body))
		}
		if r.err != nil {
			// A failed request misses every latency limit.
			cr.latencies = append(cr.latencies, failedLatency)
			cr.failed++
			cr.failedAt[j] = true
			cr.errs = append(cr.errs, r.err.Error())
			continue
		}
		cr.latencies = append(cr.latencies, r.latency)
		if keep(j) {
			cr.kept[j] = append([]byte(nil), r.body...)
		}
		after(j, q, r)
	}
}

// loopbackUS is the mean round trip, over one client, of n requests
// (cycling through reqs) to an empty handler: the HTTP floor that every
// request's server.overhead contains.
func loopbackUS(reqs []request, n int) (float64, error) {
	ln, url, err := listen()
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := newClient(1)
	var buf bytes.Buffer
	var total time.Duration
	for i := 0; i < n && err == nil; i++ {
		r := post(client, url, reqs[i%len(reqs)], &buf)
		if err = r.err; err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("loopback: status %d", r.status)
		}
		total += r.latency
	}
	srv.Close()
	<-done // always http.ErrServerClosed after Close
	client.CloseIdleConnections()
	return float64(total) / float64(n) / 1e3, err
}

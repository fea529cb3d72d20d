package main

// Output verification, run outside the timed window: a response is
// correct when its deterministic section equals what a local, cache-free
// Spec.RunOnce of the same request produces.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"flagsim/internal/server"
	"flagsim/internal/sim"
	"flagsim/internal/wire"
)

// runReply is the part of a /v1/run reply the benchmark checks.
type runReply struct {
	Spec     string          `json:"spec"`
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
}

func gridSHA(res *sim.Result) string {
	sum := sha256.Sum256([]byte(res.Grid.String()))
	return hex.EncodeToString(sum[:])
}

// verify checks one response body against a local run of its request.
func verify(q request, body []byte) error {
	if q.run != nil {
		return verifyRun(*q.run, body)
	}
	return verifySweep(*q.sweep, body)
}

func verifyRun(req wire.RunRequest, body []byte) error {
	var got runReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("run reply: %w", err)
	}
	sp, err := req.Spec()
	if err != nil {
		return err
	}
	res, err := sp.RunOnce(context.Background())
	if err != nil {
		return fmt.Errorf("local run %s: %w", sp.Label(), err)
	}
	want, err := wire.MarshalResult(res)
	if err != nil {
		return err
	}
	if got.Spec != sp.Label() {
		return fmt.Errorf("run reply for %s names spec %q", sp.Label(), got.Spec)
	}
	if !bytes.Equal(got.Result, want) {
		return fmt.Errorf("run %s: result differs from local RunOnce (grid_sha256 %s)", sp.Label(), gridSHA(res))
	}
	return nil
}

func verifySweep(req wire.SweepRequest, body []byte) error {
	var got server.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("sweep reply: %w", err)
	}
	specs, err := req.Specs()
	if err != nil {
		return err
	}
	if got.Count != len(specs) || len(got.Runs) != len(specs) || got.Failed != 0 {
		return fmt.Errorf("sweep reply: count %d, %d rows, %d failed; want %d rows",
			got.Count, len(got.Runs), got.Failed, len(specs))
	}
	for i, sp := range specs {
		res, err := sp.RunOnce(context.Background())
		if err != nil {
			return fmt.Errorf("local run %s: %w", sp.Label(), err)
		}
		row := got.Runs[i]
		if row.Spec != sp.Label() || row.Err != "" || row.MakespanNS != int64(res.Makespan) ||
			row.Events != res.Events || row.GridSHA256 != gridSHA(res) {
			return fmt.Errorf("sweep row %d (%s) differs from local RunOnce", i, sp.Label())
		}
	}
	return nil
}

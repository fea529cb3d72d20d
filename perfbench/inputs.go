package main

// Seeded request streams. Every workload is a list of closed-loop client
// streams per round; a stream is a fixed sequence of requests that one
// client sends in order. Streams are a pure function of (workload, seed,
// round, client, phase), so the same seed always yields the same bytes,
// and no two rounds, clients or phases share a generated flag variant or
// a memo key — one round never warms another.

import (
	"encoding/json"
	"math/rand/v2"

	"flagsim/internal/flaggen"
	"flagsim/internal/flagspec"
	"flagsim/internal/wire"
)

// request is one HTTP call a client makes.
type request struct {
	path  string
	body  []byte
	specs int // specs the request asks for (1 for /v1/run)
	run   *wire.RunRequest
	sweep *wire.SweepRequest
}

// phase separates priming (set-up) traffic from measured traffic, so the
// two never share flag variants.
type phase uint64

const (
	phasePrime   phase = 1
	phaseMeasure phase = 2
)

// genFamily is the generated-flag family every gen workload draws from;
// variants carry the seed, round, client and phase, so names never
// collide across any of them.
const genFamily = 7

func genVariant(seed uint64, round, client int, ph phase, k int) uint64 {
	// 16 bits of seed, 12 of round, 6 of client, 2 of phase, 28 of index.
	return (seed&0xffff)<<48 | uint64(round&0xfff)<<36 | uint64(client&0x3f)<<30 |
		uint64(ph&3)<<28 | uint64(k)&(1<<28-1)
}

func genName(seed uint64, round, client int, ph phase, k int) string {
	return flaggen.Name(genFamily, genVariant(seed, round, client, ph, k))
}

func streamRNG(seed uint64, round, client int, ph phase) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(round)<<16|uint64(client)<<4|uint64(ph)))
}

func runRequest(req wire.RunRequest) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a plain DTO always marshals
	}
	return request{path: "/v1/run", body: body, specs: 1, run: &req}
}

func sweepRequest(req wire.SweepRequest) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return request{path: "/v1/sweep", body: body, specs: len(req.Flags), sweep: &req}
}

// coldCombos are the eight (exec, scenario) pairs each generated variant
// is requested under in run-gen-cold: every pair is valid for every
// generated flag (at least two layers, at least ten columns).
var coldCombos = [8]struct {
	exec     string
	scenario int
}{
	{"static", 1}, {"steal", 1}, {"static", 2}, {"steal", 2},
	{"static", 3}, {"steal", 3}, {"static", 4}, {"steal", 4},
}

// genColdStream is run-gen-cold: n requests in blocks of 64 variants ×
// 8 (exec, scenario) pairs, so each variant is requested 8 times within
// 512 requests (flag reuse 7 in 8) and no spec ever repeats (memo hit
// rate 0).
func genColdStream(seed uint64, round, client int, ph phase, n int) []request {
	r := streamRNG(seed, round, client, ph)
	out := make([]request, n)
	for j := range out {
		block, k := j/512, j%512
		v := block*64 + k%64
		c := coldCombos[k/64]
		out[j] = runRequest(wire.RunRequest{
			Exec: c.exec, Scenario: c.scenario,
			Flag: genName(seed, round, client, ph, v),
			Seed: r.Uint64(),
		})
	}
	return out
}

// builtinWorkingSet is run-builtin-warm's working set: n distinct specs
// over the built-in catalog, computed during set-up so every measured
// request is a memo hit.
func builtinWorkingSet(seed uint64, n int) []wire.RunRequest {
	names := flagspec.Names() // sorted
	r := rand.New(rand.NewPCG(seed, 0xb1))
	out := make([]wire.RunRequest, n)
	for i := range out {
		c := coldCombos[r.IntN(len(coldCombos))]
		out[i] = wire.RunRequest{
			Exec: c.exec, Scenario: c.scenario,
			Flag: names[i%len(names)],
			Seed: uint64(i)<<32 | uint64(r.Uint32()),
		}
	}
	return out
}

// builtinWarmStream draws n requests uniformly from the working set.
func builtinWarmStream(seed uint64, round, client int, set []wire.RunRequest, n int) []request {
	r := streamRNG(seed, round, client, phaseMeasure)
	out := make([]request, n)
	for j := range out {
		out[j] = runRequest(set[r.IntN(len(set))])
	}
	return out
}

// sweepBatch is the flag count of one sweep-gen-mixed batch; half of it
// repeats the previous batch of the same client.
const sweepBatch = 32

// sweepChain is sweep-gen-mixed for one client: a chain of batches whose
// first half repeats the previous batch's second half (memo hits) and
// whose second half names flags never requested before (computes with
// no flag reuse). The base spec is fixed per client, so repeated names
// are repeated specs. Batch 0 of the priming chain has no predecessor,
// so all of it computes.
func sweepChain(seed uint64, round, client int, prime, n int) (priming, measured []request) {
	r := streamRNG(seed, round, client, phaseMeasure)
	base := wire.RunRequest{
		Exec:     [2]string{"static", "steal"}[client%2],
		Scenario: 4,
		Seed:     r.Uint64(),
	}
	half := sweepBatch / 2
	next := 0
	fresh := func() []string {
		out := make([]string, half)
		for i := range out {
			out[i] = genName(seed, round, client, phaseMeasure, next)
			next++
		}
		return out
	}
	prev := fresh()
	for b := 0; b < prime+n; b++ {
		cur := fresh()
		req := sweepRequest(wire.SweepRequest{Base: base, Flags: append(append([]string(nil), prev...), cur...)})
		if b < prime {
			priming = append(priming, req)
		} else {
			measured = append(measured, req)
		}
		prev = cur
	}
	return priming, measured
}

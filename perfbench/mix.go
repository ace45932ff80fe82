package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/kgen"
	"repro/internal/polybench"
	"repro/internal/serve"
)

// kernelOrders returns the seeded orders in which the sweep workloads
// explore the n PolyBench kernels, a fresh one each round: a kernel's
// time depends a little on what ran before it, and varying the order per
// round averages that out within a run.
func kernelOrders(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// Request classes of the serve mix.
const (
	classStored = "stored" // names a point the store already holds
	classNew    = "new"    // names a point no earlier request named
)

// serveRequest is one request of the serve mix with its wire body.
type serveRequest struct {
	Class string
	Req   serve.EvalRequest
	Body  []byte
}

// serveMix is the serve workload's input: the points set-up stores, and
// the request sequence the clients consume in order.
type serveMix struct {
	Stored []serveRequest
	Reqs   []serveRequest
}

// phaseLen is the number of requests in each phase of the serve mix: the
// clients send the requests of one class together, so a stored point's
// round trip is not timed while the other client compiles.
const phaseLen = 20

// storedKgen is the number of raw-MLIR kernels among the stored points;
// the other stored points are every PolyBench kernel at MINI with base
// directives through both flows.
const storedKgen = 28

// kgenSeed maps a run seed and a draw index to a kgen seed, keeping the
// draws of different run seeds disjoint.
func kgenSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// newServeMix draws n requests from seed in alternating phases of
// phaseLen. Half name a stored point drawn uniformly; the rest are new
// points, each drawn once: half PolyBench kernels with sampled directives,
// half kgen kernels with their own, evenly split between the adaptor and
// cxx flows.
func newServeMix(seed int64, n int) (serveMix, error) {
	var mix serveMix
	seen := map[string]bool{}
	// add appends a point no earlier add drew; stored repeats bypass it.
	add := func(list *[]serveRequest, class string, req serve.EvalRequest) (bool, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return false, err
		}
		if seen[string(body)] {
			return false, nil
		}
		seen[string(body)] = true
		*list = append(*list, serveRequest{Class: class, Req: req, Body: body})
		return true, nil
	}
	kinds := []string{"adaptor", "cxx"}
	for _, k := range polybench.All() {
		for _, kind := range kinds {
			if _, err := add(&mix.Stored, classStored, serve.EvalRequest{Kernel: k.Name, Size: "MINI", Kind: kind}); err != nil {
				return mix, err
			}
		}
	}
	draw := 0
	kgenReq := func(kind string) serve.EvalRequest {
		kg := kgen.Generate(kgenSeed(seed, draw), kgen.Config{})
		draw++
		return serve.EvalRequest{MLIR: kg.MLIR, Top: kg.Name, Kind: kind, Directives: serve.DirectivesFrom(kg.Directives)}
	}
	for i := 0; i < storedKgen; i++ {
		if _, err := add(&mix.Stored, classStored, kgenReq(kinds[i%2])); err != nil {
			return mix, err
		}
	}

	// The mix is drawn in phases of one class: phaseLen stored points
	// drawn uniformly, then phaseLen new points, half PolyBench and half
	// kgen in seeded order. New PolyBench points walk the kernels in a
	// fresh seeded permutation per pass, each pass with the next size and
	// flow kind, so every run weighs kernels, sizes and kinds alike and the
	// seed changes which points, not how many of each kind.
	rng := rand.New(rand.NewSource(seed))
	kernels := polybench.All()
	sizes := []string{"MINI", "SMALL"}
	var perm []int
	pb, kg := 0, 0
	var block []string
	for i := 0; i < phaseLen; i++ {
		block = append(block, classStored)
	}
	for i := 0; i < phaseLen; i++ {
		block = append(block, []string{"polybench", "kgen"}[i%2])
	}
	for len(mix.Reqs) < n {
		fresh := block[phaseLen:]
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		for _, slot := range block {
			switch slot {
			case classStored:
				mix.Reqs = append(mix.Reqs, mix.Stored[rng.Intn(len(mix.Stored))])
			case "kgen":
				if _, err := add(&mix.Reqs, classNew, kgenReq(kinds[kg%2])); err != nil {
					return mix, err
				}
				kg++
			case "polybench":
				if pb%len(kernels) == 0 {
					perm = rng.Perm(len(kernels))
				}
				pass := pb / len(kernels)
				k := kernels[perm[pb%len(kernels)]]
				size, kind := sizes[pass%2], kinds[pass/2%2]
				pb++
				// A kernel holds a few hundred distinct points per size and
				// kind; once draws keep hitting used ones, a kgen kernel
				// stands in.
				ok := false
				for try := 0; try < 64 && !ok; try++ {
					d, _ := kgen.SampleDirectives(rng)
					req := serve.EvalRequest{Kernel: k.Name, Size: size, Kind: kind, Directives: serve.DirectivesFrom(d)}
					var err error
					if ok, err = add(&mix.Reqs, classNew, req); err != nil {
						return mix, err
					}
				}
				if !ok {
					if _, err := add(&mix.Reqs, classNew, kgenReq(kind)); err != nil {
						return mix, err
					}
				}
			}
		}
	}
	mix.Reqs = mix.Reqs[:n]
	return mix, nil
}

// Quickstart: maintain an adversarially robust sample of a stream through
// the public packages.
//
// This example sizes a reservoir per Theorem 1.2 of "The Adversarial
// Robustness of Sampling" (Ben-Eliezer & Yogev, PODS 2020) via
// sketch.NewRobustReservoir, feeds a stream to a one-shard engine holding a
// reservoir of that size, and reads the engine's exact verdict: whether the
// sample is an eps-approximation of the stream with respect to all prefix
// ranges — the guarantee that would hold (with probability 1-delta) even if
// every element had been chosen by an adversary watching the sample.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand/v2"

	"robustsample/shard"
	"robustsample/sketch"
)

func main() {
	const (
		n        = 50000
		universe = int64(1) << 20
		eps      = 0.05
		delta    = 0.01
	)
	u, err := sketch.NewInt64Universe(universe)
	if err != nil {
		panic(err)
	}

	// Theorem 1.2: k = 2 (ln|U| + ln(2/delta)) / eps^2. Constructors
	// return errors instead of panicking.
	sized, err := sketch.NewRobustReservoir(u, eps, delta, n)
	if err != nil {
		panic(err)
	}
	k := sized.K()
	fmt.Printf("robust reservoir size k = %d (Theorem 1.2)\n", k)

	// A one-shard engine is a reservoir of that size that also keeps the
	// exact prefix-system verdict of everything it has seen.
	engine, err := shard.New(u,
		shard.WithSystem(shard.Prefixes),
		shard.WithReservoir(k),
		shard.WithSeed(42),
	)
	if err != nil {
		panic(err)
	}

	// Feed a stream. Here it is a skewed static workload; the guarantee
	// would be the same against any adaptive choice.
	r := rand.New(rand.NewPCG(42, 0))
	stream := make([]int64, n)
	for i := range stream {
		// Mixture: mostly low values, occasional high spikes.
		if r.Float64() < 0.8 {
			stream[i] = 1 + r.Int64N(universe/8)
		} else {
			stream[i] = universe/2 + r.Int64N(universe/2)
		}
	}
	if _, err := engine.OfferBatch(stream); err != nil {
		panic(err)
	}

	v, err := engine.Verdict()
	if err != nil {
		panic(err)
	}
	fmt.Printf("sample size |S| = %d\n", engine.SampleLen())
	fmt.Printf("exact approximation error = %.4f (target eps = %.2f)\n", v.Err, eps)
	if v.HasWitness {
		fmt.Printf("worst range = [%d, %d]\n", v.Lo, v.Hi)
	}
	if v.Err <= eps {
		fmt.Println("sample IS an eps-approximation of the stream ✓")
	} else {
		fmt.Println("sample is NOT an eps-approximation (probability <= delta)")
	}

	// The engine is serializable: checkpoint and resume bit-identically.
	snap, err := engine.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot: %d bytes (Restore resumes bit-identically)\n", len(snap))
}

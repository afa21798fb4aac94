package shard

import (
	"errors"
	"fmt"
	"testing"

	"robustsample/internal/rng"
	"robustsample/internal/setsystem"
)

// stripeRouter is a Router outside the three built-in ones: it has no
// lock-free batch lane, so Serve must refuse it.
type stripeRouter struct{}

func (stripeRouter) Name() string { return "stripe" }
func (stripeRouter) Reset()       {}
func (stripeRouter) Route(x int64, round int, shards int, _ *rng.RNG) int {
	return int((uint64(x) + uint64(round)) % uint64(shards))
}

// TestLiveRouterBatchMatchesScalar pins the live routing contract against
// the reference: for every built-in router, the batch lane over any
// chunking of a lane's stream must produce exactly the destinations of
// per-element Router.Route calls — on an identically split lane RNG for
// Uniform (which doubles as a test of the exact-drain bulk-RNG discipline:
// the batch path must consume the lane's stream draw-for-draw like Intn),
// with round i+1 for element i for RoundRobin, and purely for HashByValue.
func TestLiveRouterBatchMatchesScalar(t *testing.T) {
	const n = 1000
	stream := servingStream(n, 17)
	sys := setsystem.NewPrefixes(servingUniverse)
	chunks := []int{1, 7, 8, 64, 123, 256}
	for _, router := range Routers() {
		for _, S := range []int{1, 3, 4} {
			name := fmt.Sprintf("%s/S=%d", router.Name(), S)
			cfg := Config{Shards: S, Router: router, System: sys, Workers: 1}
			// Two identically seeded engines: the reference routes per
			// element on lane 0's split of the routing stream, the other
			// through the batch lane in chunks.
			ea := New(cfg, rng.New(5))
			eb := New(cfg, rng.New(5))
			lane := ea.routerRNG.Split()
			batch := eb.liveRouter(&Serving{e: eb}, 1)

			want := make([]int, n)
			for i, x := range stream {
				want[i] = router.Route(x, i+1, S, lane)
			}
			got := make([]int, 0, n)
			dst := make([]int, chunks[len(chunks)-1])
			for i, c := 0, 0; i < n; c++ {
				k := min(chunks[c%len(chunks)], n-i)
				batch(0, stream[i:i+k], dst[:k])
				got = append(got, dst[:k]...)
				i += k
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: element %d routed to %d by batch, %d by Route", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestServeRejectsUnknownRouter: only the built-in routers have a
// concurrent routing lane, so Serve refuses any other Router in both modes.
func TestServeRejectsUnknownRouter(t *testing.T) {
	for _, det := range []bool{false, true} {
		e := New(Config{Shards: 3, Router: stripeRouter{}, System: setsystem.NewPrefixes(servingUniverse)}, rng.New(5))
		if _, err := e.Serve(ServeConfig{Deterministic: det}); !errors.Is(err, ErrServeUnsupported) {
			t.Fatalf("deterministic=%v: Serve with %s router: err = %v, want ErrServeUnsupported", det, stripeRouter{}.Name(), err)
		}
	}
}

package shard

import (
	"slices"
	"testing"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	rr := RoundRobin{}
	counts := make([]int, 3)
	for round := 1; round <= 300; round++ {
		counts[rr.Route(42, round, 3, nil)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("shard %d received %d of 300", i, c)
		}
	}
}

func TestHashByValueIsConsistentAndSpread(t *testing.T) {
	h := HashByValue{}
	counts := make([]int, 4)
	for x := int64(0); x < 4000; x++ {
		a := h.Route(x, 1, 4, nil)
		b := h.Route(x, 999, 4, nil)
		if a != b {
			t.Fatalf("hash routing of %d depends on round", x)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("hash shard %d received %d of 4000 (poor spread)", i, c)
		}
	}
}

func TestUniformRoutesInRange(t *testing.T) {
	u := Uniform{}
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		s := u.Route(int64(i), i+1, 5, r)
		if s < 0 || s >= 5 {
			t.Fatalf("uniform routed out of range: %d", s)
		}
	}
}

func newTestEngine(shards, k int, router Router, seed uint64) *Engine {
	return New(Config{
		Shards: shards,
		Router: router,
		System: setsystem.NewPrefixes(1 << 16),
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](k)
		},
		Workers:       1,
		RecordStreams: true,
	}, rng.New(seed))
}

// TestSubstreamsPartitionStream checks the routing bookkeeping: the shard
// substreams partition the full stream (as multisets, sizes and contents),
// under every router.
func TestSubstreamsPartitionStream(t *testing.T) {
	for _, router := range Routers() {
		eng := newTestEngine(4, 10, router, 8)
		gen := rng.New(2)
		xs := make([]int64, 2000)
		for i := range xs {
			xs[i] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs[:1500])
		for _, x := range xs[1500:] {
			eng.Offer(x)
		}
		if eng.Rounds() != len(xs) {
			t.Fatalf("%s: rounds %d, want %d", router.Name(), eng.Rounds(), len(xs))
		}
		var union []int64
		total := 0
		for i := 0; i < eng.NumShards(); i++ {
			union = append(union, eng.Substream(i)...)
			total += eng.ShardRounds(i)
		}
		if total != len(xs) {
			t.Fatalf("%s: shard rounds sum to %d, want %d", router.Name(), total, len(xs))
		}
		slices.Sort(union)
		full := append([]int64(nil), eng.Stream()...)
		slices.Sort(full)
		if !slices.Equal(union, full) {
			t.Fatalf("%s: substreams do not partition the stream", router.Name())
		}
	}
}

func TestRouteToRecordsAtExplicitShard(t *testing.T) {
	eng := newTestEngine(3, 5, Uniform{}, 9)
	eng.RouteTo(7, 2)
	eng.RouteTo(8, 2)
	eng.RouteTo(9, 0)
	if got := eng.Substream(2); !slices.Equal(got, []int64{7, 8}) {
		t.Fatalf("substream 2 = %v", got)
	}
	if eng.ShardRounds(0) != 1 || eng.ShardRounds(1) != 0 {
		t.Fatalf("shard rounds: %d %d", eng.ShardRounds(0), eng.ShardRounds(1))
	}
}

// TestShardVerdictMatchesLocalOneShot checks per-shard verdicts against the
// one-shot oracle on the shard's own substream and sample.
func TestShardVerdictMatchesLocalOneShot(t *testing.T) {
	sys := setsystem.NewPrefixes(1 << 16)
	eng := newTestEngine(3, 12, HashByValue{}, 10)
	gen := rng.New(4)
	for i := 0; i < 5; i++ {
		xs := make([]int64, 700)
		for j := range xs {
			xs[j] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs)
	}
	for i := 0; i < eng.NumShards(); i++ {
		got := eng.ShardVerdict(i)
		want := sys.MaxDiscrepancy(eng.Substream(i), eng.ShardSampler(i).View())
		if got != want {
			t.Fatalf("shard %d verdict %+v, one-shot %+v", i, got, want)
		}
	}
}

func TestGlobalSampleDrawsFromUnion(t *testing.T) {
	eng := newTestEngine(4, 50, Uniform{}, 11)
	gen := rng.New(5)
	xs := make([]int64, 4000)
	for i := range xs {
		xs[i] = 1 + gen.Int63n(1<<16)
	}
	eng.OfferBatch(xs)
	union := map[int64]int{}
	for _, v := range eng.SampleView() {
		union[v]++
	}
	if eng.SampleLen() != len(eng.SampleView()) {
		t.Fatalf("SampleLen %d != union view length %d", eng.SampleLen(), len(eng.SampleView()))
	}
	got := eng.GlobalSample(60, rng.New(6))
	if len(got) != 60 {
		t.Fatalf("global sample size %d, want 60", len(got))
	}
	for _, v := range got {
		if union[v] == 0 {
			t.Fatalf("global sample drew %d, not present in any shard sample", v)
		}
		union[v]--
	}
}

func TestStartGameReproducesRuns(t *testing.T) {
	eng := newTestEngine(4, 10, Uniform{}, 12)
	play := func() ([]int64, setsystem.Discrepancy) {
		eng.StartGame(rng.New(77))
		gen := rng.New(3)
		xs := make([]int64, 1200)
		for i := range xs {
			xs[i] = 1 + gen.Int63n(1<<16)
		}
		eng.OfferBatch(xs)
		return eng.Sample(), eng.Verdict()
	}
	s1, v1 := play()
	s2, v2 := play()
	if !slices.Equal(s1, s2) || v1 != v2 {
		t.Fatal("StartGame with equal seeds did not reproduce the run")
	}
}

func TestRoutingOnlyEngine(t *testing.T) {
	eng := New(Config{Shards: 3, RecordStreams: true}, rng.New(1))
	for i := int64(0); i < 300; i++ {
		if _, admitted := eng.Offer(i); admitted {
			t.Fatal("routing-only engine admitted an element")
		}
	}
	total := 0
	for i := 0; i < 3; i++ {
		total += len(eng.Substream(i))
	}
	if total != 300 {
		t.Fatalf("recorded %d of 300", total)
	}
	for _, f := range []func(){
		func() { eng.Verdict() },
		func() { eng.ShardVerdict(0) },
		func() { eng.GlobalSample(5, rng.New(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on verdict/sample of routing-only engine")
				}
			}()
			f()
		}()
	}
}

func TestConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{Shards: 0}, rng.New(1)) },
		func() {
			New(Config{Shards: 2, NewSampler: func(int) game.Sampler {
				return sampler.NewReservoir[int64](4)
			}}, rng.New(1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected construction panic")
				}
			}()
			f()
		}()
	}
}

// TestTargetedBisectionPoisonsTargetShard runs the unbounded
// distributed-bisection arm and checks its qualitative shape: the target
// shard's sample becomes far less representative of the full stream than
// the merged coordinator sample, which the untargeted shards dilute.
func TestTargetedBisectionPoisonsTargetShard(t *testing.T) {
	const n = 6000
	out := RunTargetedBisectionUnbounded(4, n, 0.05, rng.New(42))
	if out.S != 4 || out.N != n {
		t.Fatalf("outcome labels: %+v", out)
	}
	if out.TargetSampleLen == 0 {
		t.Fatal("empty target sample; attack produced nothing to poison")
	}
	if out.TargetVsStream < 0.5 {
		t.Fatalf("attack too weak: target-vs-stream KS %v, want > 0.5", out.TargetVsStream)
	}
	if out.GlobalErr >= out.TargetVsStream {
		t.Fatalf("merged verdict (%v) should beat the poisoned target shard (%v)",
			out.GlobalErr, out.TargetVsStream)
	}
}

// TestTargetedBisectionBoundedUniverseIsCapped runs the bounded-universe
// defense row on the live engine: with hash-discretized queries the attack
// exhausts its precision (Theorem 1.2 with rate p/S caps the damage), so
// the target shard stays far more representative than under the unbounded
// attack.
func TestTargetedBisectionBoundedUniverseIsCapped(t *testing.T) {
	const n = 6000
	unbounded := RunTargetedBisectionUnbounded(4, n, 0.05, rng.New(42))
	sys := setsystem.NewPrefixes(int64(1) << 40)
	bounded := RunTargetedBisection(4, n, 0.05, sys, rng.New(42))
	if bounded.TargetVsStream >= unbounded.TargetVsStream/2 {
		t.Fatalf("bounded attack KS %v not clearly capped vs unbounded %v",
			bounded.TargetVsStream, unbounded.TargetVsStream)
	}
}

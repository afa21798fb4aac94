package main

import (
	"context"
	"errors"
	"testing"

	"robustsample/shard"
	"robustsample/sketch"
)

// TestAcceptedPartMatchesServing cuts batches short with an expired
// deadline against tiny rings, then checks that a serial engine fed
// acceptedPart's reconstruction reaches the live session's verdict.
func TestAcceptedPartMatchesServing(t *testing.T) {
	u, err := sketch.NewInt64Universe(serveDense.universe)
	if err != nil {
		t.Fatal(err)
	}
	opts := []shard.Option{
		shard.WithShards(serveShards), shard.WithRouter(shard.RouterHash),
		shard.WithReservoir(64), shard.WithSeed(3),
	}
	live, err := shard.New(u, append(opts, shard.WithPipeline(shard.PipelineConfig{Producers: 1, RingSize: 2}))...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shard.New(u, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := live.Serve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	prod, err := srv.Producer(0)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	pool := uniformPool(3, serveDense.universe, 64*serveBatch)
	cut := 0
	for off := 0; off < len(pool); off += serveBatch {
		b := pool[off : off+serveBatch]
		n, err := prod.OfferBatchContext(expired, b)
		if err != nil && !errors.Is(err, shard.ErrBackpressure) {
			t.Fatal(err)
		}
		if n < len(b) {
			cut++
		}
		if _, err := ref.OfferBatch(acceptedPart(b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if cut == 0 {
		t.Skip("no batch was cut short")
	}
	srv.Flush()
	got, gerr := srv.Verdict()
	want, werr := ref.Verdict()
	if gerr != nil || werr != nil || got != want {
		t.Fatalf("live %+v (%v), reconstruction %+v (%v), %d batches cut", got, gerr, want, werr, cut)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "kid", start: 10, end: 40},
		{id: 3, parent: 1, name: "kid", start: 30, end: 50},  // overlaps the first kid
		{id: 4, parent: 1, name: "kid", start: 90, end: 120}, // runs past the parent
	}
	for _, st := range selfTimes(spans) {
		if st.name == "root" && st.self != 50 {
			t.Errorf("root self time %v, want 50ns", st.self)
		}
		if st.name == "kid" && (st.count != 3 || st.self != 80) {
			t.Errorf("kid count %d self %v, want 3 and 80ns", st.count, st.self)
		}
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 989 || pct != 99 {
		t.Errorf("tail = %v at p%v (%v), want 989 at p99", v, pct, ok)
	}
	if _, _, ok := tail(xs[:99]); ok {
		t.Error("tail of 99 samples reported, want omitted")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

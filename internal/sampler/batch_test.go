package sampler

import (
	"math"
	"reflect"
	"testing"

	"robustsample/internal/rng"
)

// batchSampler is the bulk-ingest surface shared by the int64 samplers.
type batchSampler interface {
	Offer(x int64, r *rng.RNG) bool
	OfferBatch(xs []int64, r *rng.RNG) int
	View() []int64
	Rounds() int
	LastDelta() (added, removed []int64)
	Reset()
}

func batchCases() []struct {
	name      string
	mk        func() batchSampler
	exactBits bool // batch path draws identical randomness to per-element
} {
	return []struct {
		name      string
		mk        func() batchSampler
		exactBits bool
	}{
		{"bernoulli", func() batchSampler { return NewBernoulli[int64](0.05) }, false},
		{"reservoir", func() batchSampler { return NewReservoir[int64](16) }, true},
		{"reservoirL", func() batchSampler { return NewReservoirL[int64](16) }, true},
		{"with-replacement", func() batchSampler { return NewWithReplacement[int64](16) }, true},
	}
}

func testStream(n int) []int64 {
	r := rng.New(5)
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + r.Int63n(1000)
	}
	return out
}

// TestOfferBatchMatchesSequential: for samplers whose batch path draws the
// same randomness as per-element Offers, the final sample, round count and
// admission totals must be bit-identical between the two ingest styles.
func TestOfferBatchMatchesSequential(t *testing.T) {
	stream := testStream(3000)
	for _, tc := range batchCases() {
		if !tc.exactBits {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.mk()
			rs := rng.New(21)
			for _, x := range stream {
				seq.Offer(x, rs)
			}
			bat := tc.mk()
			rb := rng.New(21)
			bat.OfferBatch(stream, rb)
			if !reflect.DeepEqual(seq.View(), bat.View()) {
				t.Fatalf("batch sample differs from sequential:\n%v\nvs\n%v", bat.View(), seq.View())
			}
			if seq.Rounds() != bat.Rounds() {
				t.Fatalf("rounds %d != %d", bat.Rounds(), seq.Rounds())
			}
			if rs.Uint64() != rb.Uint64() {
				t.Fatal("batch path consumed different randomness than sequential")
			}
		})
	}
}

// TestOfferBatchChunkInvariance: slicing the same stream into batches of any
// sizes must produce the same final sample (all samplers, including the
// Bernoulli gap-skipping path, whose pending skip carries across calls).
func TestOfferBatchChunkInvariance(t *testing.T) {
	stream := testStream(4000)
	chunkings := [][]int{{1}, {7}, {64}, {1024}, {4000}, {1, 999, 3, 501, 2496}}
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			var want []int64
			wantRounds := 0
			for ci, chunks := range chunkings {
				s := tc.mk()
				r := rng.New(33)
				i := 0
				k := 0
				for i < len(stream) {
					size := chunks[k%len(chunks)]
					k++
					j := min(i+size, len(stream))
					s.OfferBatch(stream[i:j], r)
					i = j
				}
				if ci == 0 {
					want = append([]int64(nil), s.View()...)
					wantRounds = s.Rounds()
					continue
				}
				if !reflect.DeepEqual(append([]int64(nil), s.View()...), want) {
					t.Fatalf("chunking %v changed the sample:\n%v\nvs\n%v", chunks, s.View(), want)
				}
				if s.Rounds() != wantRounds {
					t.Fatalf("chunking %v changed rounds: %d vs %d", chunks, s.Rounds(), wantRounds)
				}
			}
		})
	}
}

// TestOfferBatchDeltaTracksView replays each batch's cumulative delta into a
// shadow multiset (removals applied after additions, as the continuous game
// does) and checks it equals the sample view after every batch.
func TestOfferBatchDeltaTracksView(t *testing.T) {
	stream := testStream(2500)
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			r := rng.New(44)
			shadow := map[int64]int{}
			sizes := []int{3, 1, 47, 256, 9, 800}
			i, k := 0, 0
			for i < len(stream) {
				j := min(i+sizes[k%len(sizes)], len(stream))
				k++
				s.OfferBatch(stream[i:j], r)
				i = j
				added, removed := s.LastDelta()
				for _, v := range added {
					shadow[v]++
				}
				for _, v := range removed {
					shadow[v]--
					if shadow[v] < 0 {
						t.Fatalf("batch ending at %d: removed %d more times than added", i, v)
					}
					if shadow[v] == 0 {
						delete(shadow, v)
					}
				}
				view := map[int64]int{}
				for _, v := range s.View() {
					view[v]++
				}
				if !reflect.DeepEqual(view, shadow) {
					t.Fatalf("batch ending at %d: shadow %v != view %v", i, shadow, view)
				}
			}
		})
	}
}

// TestOfferBatchEmptyClearsDelta: an empty batch is still "the most recent
// OfferBatch" — LastDelta must come back empty, not replay the previous
// batch's delta into a delta-syncing caller.
func TestOfferBatchEmptyClearsDelta(t *testing.T) {
	stream := testStream(300)
	for _, tc := range batchCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			r := rng.New(3)
			s.OfferBatch(stream, r)
			if added, _ := s.LastDelta(); len(added) == 0 {
				t.Skip("no admissions to observe")
			}
			s.OfferBatch(nil, r)
			if added, removed := s.LastDelta(); len(added) != 0 || len(removed) != 0 {
				t.Fatalf("empty batch left stale delta +%v -%v", added, removed)
			}
		})
	}
}

// TestBernoulliBatchRate checks the gap-skipping admission law concentrates
// on p*n like the per-element path.
func TestBernoulliBatchRate(t *testing.T) {
	const n = 200000
	const p = 0.03
	b := NewBernoulli[int64](p)
	r := rng.New(8)
	stream := make([]int64, n)
	for i := range stream {
		stream[i] = int64(i)
	}
	got := 0
	for i := 0; i < n; i += 1000 {
		got += b.OfferBatch(stream[i:i+1000], r)
	}
	want := float64(n) * p
	if math.Abs(float64(got)-want) > 4*math.Sqrt(want) {
		t.Fatalf("batch admitted %d, want ~%.0f", got, want)
	}
	if b.Len() != got || b.Rounds() != n {
		t.Fatalf("bookkeeping: len=%d admitted=%d rounds=%d", b.Len(), got, b.Rounds())
	}
}

// TestBernoulliBatchTinyRate: microscopic (but valid) rates produce
// astronomically large geometric gaps; the draw must saturate rather than
// overflow into a negative skip (which previously indexed out of range).
func TestBernoulliBatchTinyRate(t *testing.T) {
	b := NewBernoulli[int64](1e-20)
	r := rng.New(1)
	stream := testStream(1000)
	for i := 0; i < 5; i++ {
		if got := b.OfferBatch(stream, r); got != 0 {
			t.Fatalf("batch %d admitted %d at p=1e-20", i, got)
		}
	}
	if b.Rounds() != 5000 || b.Len() != 0 {
		t.Fatalf("rounds=%d len=%d", b.Rounds(), b.Len())
	}
}

// TestBernoulliBatchEdgeRates covers the degenerate rates.
func TestBernoulliBatchEdgeRates(t *testing.T) {
	r := rng.New(1)
	all := NewBernoulli[int64](1)
	if got := all.OfferBatch([]int64{4, 5, 6}, r); got != 3 {
		t.Fatalf("p=1 admitted %d of 3", got)
	}
	none := NewBernoulli[int64](0)
	if got := none.OfferBatch([]int64{4, 5, 6}, r); got != 0 || none.Len() != 0 {
		t.Fatalf("p=0 admitted %d", got)
	}
	if got := all.OfferBatch(nil, r); got != 0 {
		t.Fatalf("empty batch admitted %d", got)
	}
}

func BenchmarkReservoirOfferBatch(b *testing.B) {
	stream := testStream(1 << 16)
	res := NewReservoir[int64](1024)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Reset()
		res.OfferBatch(stream, r)
	}
}

func BenchmarkBernoulliOfferBatch(b *testing.B) {
	stream := testStream(1 << 16)
	s := NewBernoulli[int64](0.01)
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.OfferBatch(stream, r)
	}
}

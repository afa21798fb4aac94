package setsystem

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"robustsample/internal/rng"
)

func allSystems(n int64) []SetSystem {
	return []SetSystem{NewPrefixes(n), NewIntervals(n), NewSingletons(n), NewSuffixes(n)}
}

// requireEqual asserts bit-exact parity between the incremental and one-shot
// discrepancy results: error AND witness.
func requireEqual(t *testing.T, sys SetSystem, got, want Discrepancy, stream, sample []int64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: accumulator %v != one-shot %v (stream=%v sample=%v)",
			sys.Name(), got, want, stream, sample)
	}
}

// TestAccumulatorMatchesOneShot is the differential test of the incremental
// engine: randomized streams and samples, including sample removals driven
// like reservoir evictions, must agree bit-for-bit with MaxDiscrepancy for
// all four set systems at every step.
func TestAccumulatorMatchesOneShot(t *testing.T) {
	const universe = 64
	r := rng.New(42)
	for _, sys := range allSystems(universe) {
		for trial := 0; trial < 30; trial++ {
			acc := sys.NewAccumulator()
			var stream, sample []int64
			steps := 30 + r.Intn(60)
			for step := 0; step < steps; step++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				acc.AddStream(x)

				// Mimic a reservoir: sometimes admit, sometimes admit
				// with eviction of a random current sample element.
				if r.Float64() < 0.5 {
					if len(sample) > 4 && r.Float64() < 0.6 {
						j := r.Intn(len(sample))
						acc.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
					acc.AddSample(x)
					sample = append(sample, x)
				}

				// Evaluate at random checkpoints and always at the end.
				if r.Float64() < 0.3 || step == steps-1 {
					requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
				}
			}
			if acc.StreamLen() != len(stream) || acc.SampleLen() != len(sample) {
				t.Fatalf("%s: lengths %d/%d, want %d/%d",
					sys.Name(), acc.StreamLen(), acc.SampleLen(), len(stream), len(sample))
			}
		}
	}
}

// TestAccumulatorEmptySample checks the empty-sample special cases (error 1
// with the system-specific witness), including a sample that was drained
// back to empty by removals.
func TestAccumulatorEmptySample(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		stream := []int64{3, 9, 9, 14}
		for _, x := range stream {
			acc.AddStream(x)
		}
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, nil), stream, nil)

		// Drain an added-then-removed sample: must match again.
		acc.AddSample(9)
		acc.AddSample(3)
		acc.RemoveSample(9)
		acc.RemoveSample(3)
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, nil), stream, nil)
	}
}

func TestAccumulatorEmptyStream(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		if d := acc.Max(); d != (Discrepancy{}) {
			t.Fatalf("%s: empty accumulator discrepancy %v, want zero", sys.Name(), d)
		}
		acc.AddSample(5)
		if d := acc.Max(); d != (Discrepancy{}) {
			t.Fatalf("%s: empty stream discrepancy %v, want zero", sys.Name(), d)
		}
	}
}

func TestAccumulatorPerfectSampleZero(t *testing.T) {
	for _, sys := range allSystems(16) {
		acc := sys.NewAccumulator()
		for _, x := range []int64{2, 5, 5, 11} {
			acc.AddStream(x)
			acc.AddSample(x)
		}
		if d := acc.Max(); d.Err != 0 {
			t.Fatalf("%s: perfect sample error %v, want 0", sys.Name(), d.Err)
		}
	}
}

func TestAccumulatorRemoveAbsentPanics(t *testing.T) {
	acc := NewPrefixes(8).NewAccumulator()
	acc.AddStream(3)
	acc.AddSample(3)
	acc.RemoveSample(3)
	for _, x := range []int64{3, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RemoveSample(%d) of absent element should panic", x)
				}
			}()
			acc.RemoveSample(x)
		}()
	}
}

// TestAccumulatorReset checks that a reset accumulator behaves like a fresh
// one, including its lazily merged sorted order.
func TestAccumulatorReset(t *testing.T) {
	sys := NewIntervals(32)
	acc := sys.NewAccumulator()
	for _, x := range []int64{7, 7, 20, 3} {
		acc.AddStream(x)
	}
	acc.AddSample(20)
	acc.Max()
	acc.Reset()
	if acc.StreamLen() != 0 || acc.SampleLen() != 0 {
		t.Fatal("reset accumulator not empty")
	}
	stream := []int64{4, 8, 8}
	sample := []int64{8}
	for _, x := range stream {
		acc.AddStream(x)
	}
	for _, x := range sample {
		acc.AddSample(x)
	}
	requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
}

// TestAccumulatorInterleavedMax verifies that calling Max between every
// update (forcing incremental pending merges of size one) agrees with a
// single batch evaluation.
func TestAccumulatorInterleavedMax(t *testing.T) {
	r := rng.New(7)
	for _, sys := range allSystems(20) {
		acc := sys.NewAccumulator()
		var stream, sample []int64
		for i := 0; i < 50; i++ {
			x := 1 + r.Int63n(20)
			stream = append(stream, x)
			acc.AddStream(x)
			if i%3 == 0 {
				sample = append(sample, x)
				acc.AddSample(x)
			}
			requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
		}
	}
}

// TestAccumulatorMultiBlockParity forces small blocks (so the sqrt
// decomposition, offset pass, hull queries, block splitting and witness
// rescans are all exercised across many blocks) and demands bit-exact
// parity with the one-shot on randomized eviction-heavy histories.
func TestAccumulatorMultiBlockParity(t *testing.T) {
	const universe = 4096
	r := rng.New(1234)
	for _, sys := range allSystems(universe) {
		for trial := 0; trial < 8; trial++ {
			acc := sys.NewAccumulator()
			acc.blockB = 4 // force many blocks; placePending may grow it
			var stream, sample []int64
			steps := 400 + r.Intn(400)
			for step := 0; step < steps; step++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				acc.AddStream(x)
				if r.Float64() < 0.4 {
					if len(sample) > 8 && r.Float64() < 0.5 {
						j := r.Intn(len(sample))
						acc.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
					acc.AddSample(x)
					sample = append(sample, x)
				}
				if step%37 == 0 || step == steps-1 {
					requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
				}
			}
			if len(acc.blocks) < 2 {
				t.Fatalf("%s: expected multiple blocks, got %d", sys.Name(), len(acc.blocks))
			}
		}
	}
}

// TestAccumulatorReusedAcrossRuns drives one accumulator through many
// Reset/replay cycles (the Monte-Carlo per-worker reuse pattern, which also
// switches small universes onto the dense epoch-stamped index) and demands
// bit-exact parity with a freshly built accumulator and the one-shot on
// every run.
func TestAccumulatorReusedAcrossRuns(t *testing.T) {
	const universe = 512
	r := rng.New(77)
	for _, sys := range allSystems(universe) {
		reused := sys.NewAccumulator()
		for run := 0; run < 10; run++ {
			reused.Reset()
			fresh := sys.NewAccumulator()
			var stream, sample []int64
			steps := 50 + r.Intn(150)
			for i := 0; i < steps; i++ {
				x := 1 + r.Int63n(universe)
				stream = append(stream, x)
				reused.AddStream(x)
				fresh.AddStream(x)
				switch {
				case r.Float64() < 0.35:
					sample = append(sample, x)
					reused.AddSample(x)
					fresh.AddSample(x)
				case len(sample) > 3 && r.Float64() < 0.2:
					j := r.Intn(len(sample))
					reused.RemoveSample(sample[j])
					fresh.RemoveSample(sample[j])
					sample[j] = sample[len(sample)-1]
					sample = sample[:len(sample)-1]
				}
			}
			got, want := reused.Max(), fresh.Max()
			if got != want {
				t.Fatalf("%s run %d: reused %v != fresh %v", sys.Name(), run, got, want)
			}
			requireEqual(t, sys, got, sys.MaxDiscrepancy(stream, sample), stream, sample)
			if reused.StreamLen() != len(stream) || reused.SampleLen() != len(sample) {
				t.Fatalf("%s run %d: lengths %d/%d", sys.Name(), run, reused.StreamLen(), reused.SampleLen())
			}
		}
	}
}

// TestAccumulatorAddStreamBatch checks both bulk-ingest forms against
// element-at-a-time ingest across the sub-chunk edges: batch lengths at and
// around ingestChunk, fed in both orders into fresh accumulators whose
// 16-entry index grows in the middle of a sub-chunk's slot pass, over
// values inside [0, 2^31) and outside it (negative and wide: the
// non-packable sort path). After every batch the verdict, the sorted export
// and the snapshot bytes (slot creation order) must be identical, and the
// verdict must equal the one-shot. A verdict after each batch places the
// blocks, so later batches also update placed slots.
func TestAccumulatorAddStreamBatch(t *testing.T) {
	r := rng.New(9)
	lengths := []int{0, 1, ingestChunk - 1, ingestChunk, ingestChunk + 1, 1000}
	for _, wide := range []bool{false, true} {
		value := func() int64 {
			x := 1 + r.Int63n(512)
			if wide {
				return (x - 256) << 33
			}
			return x
		}
		for _, sys := range allSystems(512) {
			for _, fused := range []bool{false, true} {
				for _, reversed := range []bool{false, true} {
					batched, serial := sys.NewAccumulator(), sys.NewAccumulator()
					var stream, sample []int64
					for i := range lengths {
						n := lengths[i]
						if reversed {
							n = lengths[len(lengths)-1-i]
						}
						batch := make([]int64, n)
						for j := range batch {
							batch[j] = value()
						}
						stream = append(stream, batch...)
						if fused {
							batched.AddStreamAndSampleBatch(batch)
							for _, x := range batch {
								serial.AddStream(x)
								serial.AddSample(x)
							}
							sample = append(sample, batch...)
						} else {
							batched.AddStreamBatch(batch)
							for _, x := range batch {
								serial.AddStream(x)
							}
							if n > 0 {
								x := batch[r.Intn(n)]
								batched.AddSample(x)
								serial.AddSample(x)
								sample = append(sample, x)
							}
						}
						requireSameState(t, sys, batched, serial)
						checkParity(t, sys, batched, stream, sample)
					}
				}
			}
		}
	}
}

// requireSameState asserts two accumulators hold the same multisets in the
// same slot order: equal verdicts, sorted exports and snapshot bytes.
func requireSameState(t *testing.T, sys SetSystem, got, want *Accumulator) {
	t.Helper()
	if g, w := got.Max(), want.Max(); g != w {
		t.Fatalf("%s: verdict %v != %v", sys.Name(), g, w)
	}
	if g, w := got.AppendSorted(nil), want.AppendSorted(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: sorted bins differ:\n got %v\nwant %v", sys.Name(), g, w)
	}
	if g, w := got.AppendSnapshot(nil), want.AppendSnapshot(nil); !bytes.Equal(g, w) {
		t.Fatalf("%s: snapshot bytes differ", sys.Name())
	}
	if got.StreamLen() != want.StreamLen() || got.SampleLen() != want.SampleLen() {
		t.Fatalf("%s: lengths %d/%d, want %d/%d", sys.Name(),
			got.StreamLen(), got.SampleLen(), want.StreamLen(), want.SampleLen())
	}
}

// TestAccumulatorEpochWrap drives the index across its 32-bit epoch wrap,
// the one Reset that must clear the table: without the clear, entries
// stamped by the first run (epoch 1, the epoch a wrap restarts at) would
// turn live again and hand out stale slots.
func TestAccumulatorEpochWrap(t *testing.T) {
	for _, sys := range allSystems(1 << 10) {
		acc := sys.NewAccumulator()
		first := []int64{3, 5, 700}
		acc.AddStreamBatch(first)
		acc.Reset()
		acc.index.epoch = math.MaxUint32 << 32 // the last epoch before the wrap
		last := []int64{5, 9, 11, 9}
		acc.AddStreamBatch(last)
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(last, nil), last, nil)

		acc.Reset()
		if e := acc.index.epoch >> 32; e != 1 {
			t.Fatalf("%s: epoch after wrap %d, want 1", sys.Name(), e)
		}
		for _, x := range append(first, last...) {
			if s, ok := acc.index.lookup(x); ok {
				t.Fatalf("%s: value %d from an earlier epoch still maps to slot %d", sys.Name(), x, s)
			}
		}
		stream := []int64{700, 2, 2, 1000, 5}
		sample := []int64{2}
		acc.AddStreamBatch(stream)
		acc.AddSample(2)
		for i, x := range []int64{700, 2, 1000, 5} {
			if s, ok := acc.index.lookup(x); !ok || s != int32(i) {
				t.Fatalf("%s: value %d at slot %d (found %v), want slot %d", sys.Name(), x, s, ok, i)
			}
		}
		fresh := sys.NewAccumulator()
		fresh.AddStreamBatch(stream)
		fresh.AddSample(2)
		requireSameState(t, sys, acc, fresh)
		requireEqual(t, sys, acc.Max(), sys.MaxDiscrepancy(stream, sample), stream, sample)
	}
}

// seqSample reconstructs the sample multiset of an accumulator from its
// internal histogram, for one-shot comparison.
func seqSample(a *Accumulator) []int64 {
	var out []int64
	for _, b := range a.bins {
		for i := int64(0); i < b.Cs; i++ {
			out = append(out, b.Val)
		}
	}
	return out
}

// BenchmarkAccumulatorVerdictEveryK measures the amortized cost of one
// "span of K updates + exact verdict" cycle at a stationary structure (the
// bounded universe keeps the distinct-value count ~steady), sweeping the
// checkpoint density K — the scaling curve of the block/hull engine. The
// flat arm forces a single block, reproducing the previous engine's full
// sweep per verdict, so the two arms are a like-for-like before/after. At
// K=1 almost every block answers from a cached hull; as K grows the
// dirty-block sweeps take over and the block engine converges to the flat
// cost instead of exceeding it.
func BenchmarkAccumulatorVerdictEveryK(b *testing.B) {
	const universe = 1 << 17
	for _, engine := range []string{"block", "flat"} {
		for _, k := range []int{1, 8, 64, 512, 4096} {
			b.Run(fmt.Sprintf("engine=%s/K=%d", engine, k), func(b *testing.B) {
				r := rng.New(1)
				sys := NewPrefixes(universe)
				acc := sys.NewAccumulator()
				if engine == "flat" {
					acc.blockB = 1 << 30 // one block: every verdict is a full sweep
				}
				for i := 0; i < 100000; i++ {
					acc.AddStream(1 + r.Int63n(universe))
				}
				for i := 0; i < 1000; i++ {
					acc.AddSample(1 + r.Int63n(universe))
				}
				acc.Max()
				acc.AddStream(1 + r.Int63n(universe))
				acc.Max()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < k; j++ {
						acc.AddStream(1 + r.Int63n(universe))
					}
					acc.Max()
				}
			})
		}
	}
}

func BenchmarkAccumulatorCheckpoint(b *testing.B) {
	// One checkpoint evaluation over a large accumulated stream: the cost
	// the incremental engine pays where cdfScan would re-sort the prefix.
	r := rng.New(1)
	sys := NewPrefixes(1 << 20)
	acc := sys.NewAccumulator()
	for i := 0; i < 100000; i++ {
		acc.AddStream(1 + r.Int63n(1<<20))
	}
	for i := 0; i < 1000; i++ {
		acc.AddSample(1 + r.Int63n(1<<20))
	}
	// Two warm-up verdicts reach the steady state the benchmark measures:
	// the first places blocks and sweeps them, the second (all blocks
	// quiet) builds their hulls, so timed iterations pay the real
	// per-checkpoint cost — a dirty-block sweep or two plus O(log B) hull
	// queries elsewhere — rather than one-time hull construction.
	acc.Max()
	acc.AddStream(1 + r.Int63n(1<<20))
	acc.Max()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.AddStream(1 + r.Int63n(1<<20))
		acc.Max()
	}
}

// BenchmarkAccumulatorIngest times the stream side of serving ingest:
// AddStreamBatch over 512-element chunks (the pipeline's per-lock chunk)
// into an accumulator already in its steady state — the shard's values
// seen and placed in blocks by one verdict. The sparse arm is one of four
// hash-routed shards at U=2^20: ~257k distinct values, whose index and
// bins no longer fit in cache. The dense arm is U=2^12 on one shard.
func BenchmarkAccumulatorIngest(b *testing.B) {
	const chunk = 512
	for _, arm := range []struct {
		name     string
		universe int64
		shards   uint64
	}{
		{"sparse/U=2^20", 1 << 20, 4},
		{"dense/U=2^12", 1 << 12, 1},
	} {
		b.Run(arm.name, func(b *testing.B) {
			r := rng.New(1)
			// The shard's share of a uniform stream, routed by the same
			// hash as runtime.RouteHashBatch.
			share := func(n int) []int64 {
				xs := make([]int64, 0, n)
				for len(xs) < n {
					if x := 1 + r.Int63n(arm.universe); rng.Mix64(uint64(x))%arm.shards == 0 {
						xs = append(xs, x)
					}
				}
				return xs
			}
			acc := NewPrefixes(arm.universe).NewAccumulator()
			acc.AddStreamBatch(share(1 << 20))
			acc.Max()
			// A fresh draw, so timed accesses do not replay slot order.
			xs := share(1 << 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i, off := 0, 0; i < b.N; i++ {
				if off+chunk > len(xs) {
					off = 0
				}
				acc.AddStreamBatch(xs[off : off+chunk])
				off += chunk
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/elem")
		})
	}
}

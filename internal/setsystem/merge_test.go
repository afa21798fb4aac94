package setsystem

import (
	"testing"

	"robustsample/internal/rng"
)

// TestMergeFromEqualsDirectIngest splits one stream/sample pair across
// several accumulators, folds them into one, and requires the merged verdict
// to equal — bit for bit — both a single accumulator fed everything and the
// one-shot MaxDiscrepancy, for all four set systems. Interleaved Max calls
// force block placement on some sources and targets so the merge exercises
// both placed and pending slots.
func TestMergeFromEqualsDirectIngest(t *testing.T) {
	const universe = 256
	const parts = 4
	r := rng.New(31)
	for _, sys := range []SetSystem{
		NewPrefixes(universe), NewIntervals(universe),
		NewSingletons(universe), NewSuffixes(universe),
	} {
		t.Run(sys.Name(), func(t *testing.T) {
			direct := sys.NewAccumulator()
			srcs := make([]*Accumulator, parts)
			for i := range srcs {
				srcs[i] = sys.NewAccumulator()
			}
			var stream, sample []int64
			for i := 0; i < 3000; i++ {
				x := 1 + r.Int63n(universe)
				p := r.Intn(parts)
				srcs[p].AddStream(x)
				direct.AddStream(x)
				stream = append(stream, x)
				if r.Float64() < 0.2 {
					srcs[p].AddSample(x)
					direct.AddSample(x)
					sample = append(sample, x)
				}
				if i == 1000 {
					// Force block placement on part 0 and the target.
					srcs[0].Max()
					direct.Max()
				}
			}
			merged := sys.NewAccumulator()
			for _, s := range srcs {
				merged.MergeFrom(s)
			}
			got := merged.Max()
			if want := direct.Max(); got != want {
				t.Fatalf("merged %+v != direct %+v", got, want)
			}
			if want := sys.MaxDiscrepancy(stream, sample); got != want {
				t.Fatalf("merged %+v != one-shot %+v", got, want)
			}
			if merged.StreamLen() != len(stream) || merged.SampleLen() != len(sample) {
				t.Fatalf("merged sizes %d/%d, want %d/%d",
					merged.StreamLen(), merged.SampleLen(), len(stream), len(sample))
			}
		})
	}
}

// TestMergeFromIntoNonEmptyPlacedTarget merges into an accumulator that
// already holds mass in placed blocks, including overlapping values, and
// checks against direct ingest.
func TestMergeFromIntoNonEmptyPlacedTarget(t *testing.T) {
	sys := NewIntervals(1 << 20)
	r := rng.New(7)
	target := sys.NewAccumulator()
	direct := sys.NewAccumulator()
	var stream, sample []int64
	add := func(a *Accumulator, x int64, inSample bool) {
		a.AddStream(x)
		if inSample {
			a.AddSample(x)
		}
	}
	for i := 0; i < 2000; i++ {
		x := 1 + r.Int63n(1<<20)
		s := r.Float64() < 0.1
		add(target, x, s)
		add(direct, x, s)
		stream = append(stream, x)
		if s {
			sample = append(sample, x)
		}
	}
	target.Max() // place the target's blocks before merging
	src := sys.NewAccumulator()
	for i := 0; i < 2000; i++ {
		// Half overlapping values, half fresh.
		x := 1 + r.Int63n(1<<21)
		s := r.Float64() < 0.1
		add(src, x, s)
		add(direct, x, s)
		stream = append(stream, x)
		if s {
			sample = append(sample, x)
		}
	}
	target.MergeFrom(src)
	got := target.Max()
	if want := direct.Max(); got != want {
		t.Fatalf("merged %+v != direct %+v", got, want)
	}
	if want := sys.MaxDiscrepancy(stream, sample); got != want {
		t.Fatalf("merged %+v != one-shot %+v", got, want)
	}
}

// TestMergeFromSourceWithEvictions checks that slots whose sample copies
// were all removed (the reservoir eviction path) merge correctly, and that
// all-zero slots are skipped without perturbing the target.
func TestMergeFromSourceWithEvictions(t *testing.T) {
	sys := NewPrefixes(100)
	src := sys.NewAccumulator()
	src.AddStream(5)
	src.AddSample(5)
	src.AddSample(9) // sample-only slot...
	src.RemoveSample(9)
	// ...now an all-zero slot: cx == 0 and cs == 0 for value 9.
	src.RemoveSample(5)
	src.AddSample(7)
	src.AddStream(7)

	target := sys.NewAccumulator()
	target.AddStream(3)
	target.AddSample(3)
	target.MergeFrom(src)
	got := target.Max()
	want := sys.MaxDiscrepancy([]int64{3, 5, 7}, []int64{3, 7})
	if got != want {
		t.Fatalf("merged %+v != one-shot %+v", got, want)
	}
}

// TestMergeFromAfterReset reuses a merged target across games via Reset,
// mirroring how the shard coordinator reuses one scratch engine per
// checkpoint.
func TestMergeFromAfterReset(t *testing.T) {
	sys := NewSuffixes(512)
	target := sys.NewAccumulator()
	a := sys.NewAccumulator()
	b := sys.NewAccumulator()
	r := rng.New(13)
	for game := 0; game < 5; game++ {
		a.Reset()
		b.Reset()
		target.Reset()
		var stream, sample []int64
		for i := 0; i < 800; i++ {
			x := 1 + r.Int63n(512)
			dst := a
			if i%2 == 1 {
				dst = b
			}
			dst.AddStream(x)
			stream = append(stream, x)
			if x%5 == 0 {
				dst.AddSample(x)
				sample = append(sample, x)
			}
		}
		target.MergeFrom(a)
		target.MergeFrom(b)
		got := target.Max()
		if want := sys.MaxDiscrepancy(stream, sample); got != want {
			t.Fatalf("game %d: merged %+v != one-shot %+v", game, got, want)
		}
	}
}

func TestMergeFromValidation(t *testing.T) {
	p := NewPrefixes(10)
	a := p.NewAccumulator()
	for name, f := range map[string]func(){ //robust:nondet subtest table; each case is independent of order

		"nil source":        func() { a.MergeFrom(nil) },
		"aliased source":    func() { a.MergeFrom(a) },
		"mode mismatch":     func() { a.MergeFrom(NewIntervals(10).NewAccumulator()) },
		"universe mismatch": func() { a.MergeFrom(NewPrefixes(11).NewAccumulator()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestAppendSortedExportsHistogram pins the export the merged verdict
// reads: strictly ascending values, only nonzero bins (an all-evicted
// sample-only value is skipped), exact multiplicities — and no change to
// the source's verdict or snapshot bytes, before or after placement.
func TestAppendSortedExportsHistogram(t *testing.T) {
	r := rng.New(55)
	for _, sys := range []SetSystem{NewPrefixes(4096), NewIntervals(4096), NewSingletons(4096), NewSuffixes(4096)} {
		src := sys.NewAccumulator()
		cx := map[int64]int64{}
		cs := map[int64]int64{}
		for i := 0; i < 3000; i++ {
			x := 1 + r.Int63n(4096)
			src.AddStream(x)
			cx[x]++
			if i%3 == 0 {
				src.AddSample(x)
				cs[x]++
			}
			if i == 1500 {
				src.Max() // half the values placed, half pending
			}
		}
		src.AddSample(5000) // a sample-only value, then evicted: a zero bin
		src.RemoveSample(5000)
		wantSnap := src.AppendSnapshot(nil)
		want := src.Max()
		bins := src.AppendSorted([]Bin{{Val: -1}})
		if bins[0] != (Bin{Val: -1}) {
			t.Fatalf("%s: AppendSorted overwrote dst's prefix", sys.Name())
		}
		bins = bins[1:]
		if len(bins) != len(cx) {
			t.Fatalf("%s: %d bins, want %d distinct values", sys.Name(), len(bins), len(cx))
		}
		for i, b := range bins {
			if i > 0 && b.Val <= bins[i-1].Val {
				t.Fatalf("%s: bins not strictly ascending at %d: %v after %v", sys.Name(), i, b, bins[i-1])
			}
			if b.Cx != cx[b.Val] || b.Cs != cs[b.Val] {
				t.Fatalf("%s: bin %v, want cx=%d cs=%d", sys.Name(), b, cx[b.Val], cs[b.Val])
			}
		}
		if got := src.Max(); got != want {
			t.Fatalf("%s: AppendSorted changed the verdict: %v vs %v", sys.Name(), got, want)
		}
		if got := src.AppendSnapshot(nil); string(got) != string(wantSnap) {
			t.Fatalf("%s: AppendSorted changed the snapshot bytes", sys.Name())
		}
		if got := MergedMax(sys, [][]Bin{bins}); got != want {
			t.Fatalf("%s: one-run MergedMax %v, Max %v", sys.Name(), got, want)
		}
	}
}

// TestMergedMaxMatchesMergeFrom splits overlapping streams over 1..20
// sources (past the no-alloc fan-in of 16) at sizes past the radix-sort
// break-even, and requires the k-way sweep to equal both the MergeFrom fold
// and the one-shot, for all four systems.
func TestMergedMaxMatchesMergeFrom(t *testing.T) {
	r := rng.New(77)
	for _, universe := range []int64{64, 1 << 20} {
		for _, sys := range []SetSystem{
			NewPrefixes(universe), NewIntervals(universe),
			NewSingletons(universe), NewSuffixes(universe),
		} {
			for _, parts := range []int{1, 2, 4, 16, 20} {
				srcs := make([]*Accumulator, parts)
				for i := range srcs {
					srcs[i] = sys.NewAccumulator()
				}
				var stream, sample []int64
				for i := 0; i < 4000; i++ {
					x := 1 + r.Int63n(universe)
					p := r.Intn(parts)
					srcs[p].AddStream(x)
					stream = append(stream, x)
					if r.Float64() < 0.1 {
						srcs[p].AddSample(x)
						sample = append(sample, x)
					}
				}
				runs := make([][]Bin, parts)
				merged := sys.NewAccumulator()
				for i, s := range srcs {
					runs[i] = s.AppendSorted(nil)
					merged.MergeFrom(s)
				}
				got := MergedMax(sys, runs)
				if want := merged.Max(); got != want {
					t.Fatalf("%s U=%d S=%d: MergedMax %v, MergeFrom+Max %v", sys.Name(), universe, parts, got, want)
				}
				if want := sys.MaxDiscrepancy(stream, sample); got != want {
					t.Fatalf("%s U=%d S=%d: MergedMax %v, one-shot %v", sys.Name(), universe, parts, got, want)
				}
			}
		}
	}
}

// TestMergedMaxEmpty: no runs, empty runs and a stream-free union all give
// the zero Discrepancy, like Max on an empty accumulator; a foreign set
// system panics.
func TestMergedMaxEmpty(t *testing.T) {
	sys := NewSuffixes(10)
	for _, runs := range [][][]Bin{nil, {nil, {}}, {{{Val: 3, Cs: 2}}}} {
		if got := MergedMax(sys, runs); got != (Discrepancy{}) {
			t.Fatalf("MergedMax(%v) = %v, want zero", runs, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MergedMax accepted a foreign set system")
		}
	}()
	MergedMax(struct{ SetSystem }{sys}, nil)
}

// BenchmarkMergedMax times the k-way sweep alone over S runs of
// 2^18 values drawn from [1, U]: disjoint (hash-routed shards, U=2^20 x S)
// or overlapping (uniformly routed shards: with U=2^12 every value is in
// every run).
func BenchmarkMergedMax(b *testing.B) {
	for _, tc := range []struct {
		name     string
		S        int
		universe int64
		disjoint bool
	}{
		{"disjoint/S=4", 4, 1 << 20, true},
		{"disjoint/S=16", 16, 1 << 20, true},
		{"overlap/U=2^12/S=4", 4, 1 << 12, false},
		{"overlap/U=2^20/S=4", 4, 1 << 20, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys := NewPrefixes(tc.universe * int64(tc.S))
			r := rng.New(5)
			runs := make([][]Bin, tc.S)
			for i := range runs {
				acc := sys.NewAccumulator()
				for j := 0; j < 1<<18; j++ {
					x := 1 + r.Int63n(tc.universe)
					if tc.disjoint {
						x = x*int64(tc.S) + int64(i)
					}
					acc.AddStream(x)
					if j%64 == 0 {
						acc.AddSample(x)
					}
				}
				runs[i] = acc.AppendSorted(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if MergedMax(sys, runs).Err < 0 {
					b.Fatal("impossible verdict")
				}
			}
		})
	}
}

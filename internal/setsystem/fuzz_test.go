package setsystem

import (
	"math"
	"testing"
)

// decodeSeq turns fuzz bytes into a sequence over [1, 16].
func decodeSeq(data []byte) []int64 {
	out := make([]int64, 0, len(data))
	for _, b := range data {
		out = append(out, int64(b%16)+1)
	}
	return out
}

// FuzzIntervalDiscrepancyMatchesBrute cross-checks the O((n+s) log) interval
// discrepancy against the quadratic brute-force oracle on arbitrary inputs.
func FuzzIntervalDiscrepancyMatchesBrute(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{7, 7, 7, 7}, []byte{7, 9})
	f.Add([]byte{0, 255, 128}, []byte{})
	f.Fuzz(func(t *testing.T, streamRaw, sampleRaw []byte) {
		if len(streamRaw) > 64 || len(sampleRaw) > 32 {
			return
		}
		stream := decodeSeq(streamRaw)
		sample := decodeSeq(sampleRaw)
		fast := NewIntervals(16).MaxDiscrepancy(stream, sample)
		brute := BruteMaxDiscrepancy(16, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
		if fast.Err < 0 || fast.Err > 1+1e-12 {
			t.Fatalf("discrepancy out of [0,1]: %v", fast.Err)
		}
		// Witness must achieve the reported error.
		if len(stream) > 0 {
			got := math.Abs(Density(stream, fast.Lo, fast.Hi) - Density(sample, fast.Lo, fast.Hi))
			if math.Abs(got-fast.Err) > 1e-9 {
				t.Fatalf("witness [%d,%d] achieves %v, reported %v",
					fast.Lo, fast.Hi, got, fast.Err)
			}
		}
	})
}

// FuzzAccumulatorParity drives a random AddStream/AddSample/RemoveSample/
// batch/Max sequence decoded from fuzz bytes through the incremental
// block/hull engine and demands bit-exact parity — error AND witness — with
// the one-shot MaxDiscrepancy, for all four set systems. A batch op feeds
// the input's values, rotated to start after the op and repeated 1-8 times
// (so runs cross the 256-element sub-chunk edge), through AddStreamBatch or
// AddStreamAndSampleBatch; a twin accumulator takes every op element at a
// time, and each checkpoint also requires the twin's sorted export and
// snapshot bytes. Small forced block lengths keep the multi-block machinery
// (offset pass, hull queries, splits, witness rescans) in play even on
// short inputs.
func FuzzAccumulatorParity(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xc4, 0x05, 0x46})
	f.Add([]byte{0x81, 0x81, 0x81, 0x41, 0x01})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x3c, 0xbd, 0xbd})
	f.Add([]byte{0x01, 0x42, 0xf3, 0xe0, 0xc5, 0xfb, 0x07, 0xe1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		const universe = 32
		value := func(b byte) int64 { return int64(b&0x1f) + 1 } // [1, 32]
		systems := []SetSystem{
			NewPrefixes(universe), NewIntervals(universe),
			NewSingletons(universe), NewSuffixes(universe),
		}
		for _, sys := range systems {
			acc, twin := sys.NewAccumulator(), sys.NewAccumulator()
			acc.blockB = 3
			var stream, sample, run []int64
			for i, b := range data {
				x := value(b)
				switch op := b >> 5; {
				case op <= 3: // AddStream (weighted: streams dominate)
					stream = append(stream, x)
					acc.AddStream(x)
					twin.AddStream(x)
				case op <= 5: // AddSample
					sample = append(sample, x)
					acc.AddSample(x)
					twin.AddSample(x)
				case op == 6: // RemoveSample of an existing element
					if len(sample) > 0 {
						j := i % len(sample)
						acc.RemoveSample(sample[j])
						twin.RemoveSample(sample[j])
						sample[j] = sample[len(sample)-1]
						sample = sample[:len(sample)-1]
					}
				case b&0x10 != 0: // batch
					run = run[:0]
					for rep := 0; rep <= int(b&0x07); rep++ {
						for _, c := range data[i+1:] {
							run = append(run, value(c))
						}
						for _, c := range data[:i+1] {
							run = append(run, value(c))
						}
					}
					stream = append(stream, run...)
					if b&0x08 != 0 {
						sample = append(sample, run...)
						acc.AddStreamAndSampleBatch(run)
						for _, y := range run {
							twin.AddStream(y)
							twin.AddSample(y)
						}
					} else {
						acc.AddStreamBatch(run)
						for _, y := range run {
							twin.AddStream(y)
						}
					}
				default: // checkpoint
					checkParity(t, sys, acc, stream, sample)
					requireSameState(t, sys, acc, twin)
				}
			}
			checkParity(t, sys, acc, stream, sample)
			requireSameState(t, sys, acc, twin)
		}
	})
}

// checkParity demands bit-exact agreement between the incremental engine and
// the one-shot on the current multisets. The empty stream is the one pinned
// divergence: both report error 0, but the accumulator returns the zero
// Discrepancy while the one-shot suffix system reports a degenerate [1, N]
// witness — so witnesses are only compared once the stream is non-empty.
func checkParity(t *testing.T, sys SetSystem, acc *Accumulator, stream, sample []int64) {
	t.Helper()
	got, want := acc.Max(), sys.MaxDiscrepancy(stream, sample)
	if len(stream) == 0 {
		if got.Err != want.Err {
			t.Fatalf("%s: empty-stream err %v != one-shot %v", sys.Name(), got.Err, want.Err)
		}
		return
	}
	if got != want {
		t.Fatalf("%s: accumulator %v != one-shot %v (stream=%v sample=%v)",
			sys.Name(), got, want, stream, sample)
	}
}

// FuzzPrefixDiscrepancyMatchesBrute is the prefix-system analogue.
func FuzzPrefixDiscrepancyMatchesBrute(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2})
	f.Add([]byte{9}, []byte{})
	f.Fuzz(func(t *testing.T, streamRaw, sampleRaw []byte) {
		if len(streamRaw) > 64 || len(sampleRaw) > 32 {
			return
		}
		stream := decodeSeq(streamRaw)
		sample := decodeSeq(sampleRaw)
		fast := NewPrefixes(16).MaxDiscrepancy(stream, sample)
		brute := BrutePrefixDiscrepancy(16, stream, sample)
		if math.Abs(fast.Err-brute.Err) > 1e-9 {
			t.Fatalf("fast %v != brute %v (stream=%v sample=%v)",
				fast.Err, brute.Err, stream, sample)
		}
	})
}

// FuzzMergedMaxParity splits a stream/sample pair decoded from fuzz bytes
// over 1-16 sources with overlapping values and requires the k-way sweep
// over the sources' sorted bins (MergedMax) to equal, error AND witness,
// both Max on a MergeFrom-folded accumulator and the one-shot
// MaxDiscrepancy, for all four set systems. The first byte picks the
// source count and whether values are spread outside [0, 2^31) (negative
// and wide values: the non-packable sort path). The rest are (op, source)
// pairs: stream adds, sample adds, evictions — a sample-only value added
// and evicted leaves a fully zero bin — and checkpoints, which export some
// sources mid-stream so placed and pending values mix. Inputs without
// sample adds cover the empty union sample.
func FuzzMergedMaxParity(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0x00, 0x42, 0x01, 0x83, 0x02, 0xc4, 0x00, 0xe5, 0x01, 0x46, 0x02})
	f.Add([]byte{0x8f, 0x01, 0x03, 0x1f, 0x0e, 0x01, 0x07, 0xe0, 0x00, 0xa1, 0x05, 0x41, 0x0a})
	f.Add([]byte{0x00, 0x05, 0x00, 0x05, 0x00, 0x09, 0x00})
	f.Add([]byte{0x81, 0x05, 0x00, 0x17, 0x01, 0xc9, 0x00, 0xc9, 0x01})
	f.Add([]byte{0x07, 0xc3, 0x02, 0x03, 0x02, 0xa3, 0x05, 0xe0, 0x02, 0x23, 0x05})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		parts := int(data[0]&0x0f) + 1
		wide := data[0]&0x80 != 0
		value := func(b byte) int64 {
			x := int64(b&0x1f) + 1 // [1, 32]
			if wide {
				return (x - 16) << 35
			}
			return x
		}
		const universe = 32
		for _, sys := range []SetSystem{
			NewPrefixes(universe), NewIntervals(universe),
			NewSingletons(universe), NewSuffixes(universe),
		} {
			srcs := make([]*Accumulator, parts)
			samples := make([][]int64, parts)
			for i := range srcs {
				srcs[i] = sys.NewAccumulator()
				srcs[i].blockB = 3
			}
			var stream []int64
			for i := 1; i+1 < len(data); i += 2 {
				b, p := data[i], int(data[i+1])%parts
				x := value(b)
				switch op := b >> 5; {
				case op <= 3:
					stream = append(stream, x)
					srcs[p].AddStream(x)
				case op <= 5:
					samples[p] = append(samples[p], x)
					srcs[p].AddSample(x)
				case op == 6:
					if s := samples[p]; len(s) > 0 {
						j := i % len(s)
						srcs[p].RemoveSample(s[j])
						s[j] = s[len(s)-1]
						samples[p] = s[:len(s)-1]
					} else {
						srcs[p].AddSample(x)
						srcs[p].RemoveSample(x)
					}
				default:
					srcs[p].AppendSorted(nil)
					checkMergedParity(t, sys, srcs, stream, samples)
				}
			}
			checkMergedParity(t, sys, srcs, stream, samples)
		}
	})
}

// checkMergedParity demands MergedMax over the sources' exports equal Max
// on their MergeFrom fold and, on a non-empty union stream, the one-shot
// (checkParity's pinned empty-stream divergence applies here too).
func checkMergedParity(t *testing.T, sys SetSystem, srcs []*Accumulator, stream []int64, samples [][]int64) {
	t.Helper()
	runs := make([][]Bin, len(srcs))
	folded := sys.NewAccumulator()
	var sample []int64
	for i, s := range srcs {
		runs[i] = s.AppendSorted(nil)
		folded.MergeFrom(s)
		sample = append(sample, samples[i]...)
	}
	got := MergedMax(sys, runs)
	if want := folded.Max(); got != want {
		t.Fatalf("%s: MergedMax %v != MergeFrom+Max %v (runs=%v)", sys.Name(), got, want, runs)
	}
	if len(stream) == 0 {
		if got != (Discrepancy{}) {
			t.Fatalf("%s: empty-stream MergedMax %v, want zero", sys.Name(), got)
		}
		return
	}
	if want := sys.MaxDiscrepancy(stream, sample); got != want {
		t.Fatalf("%s: MergedMax %v != one-shot %v (stream=%v sample=%v)", sys.Name(), got, want, stream, sample)
	}
}

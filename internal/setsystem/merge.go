// Mergeable verdicts.
//
// The sharded continuous-sampling engine (internal/shard) keeps one
// Accumulator per shard, fed only with that shard's substream and local
// sample. A global checkpoint verdict needs the discrepancy of the UNION
// stream against the UNION sample — and because every set system's verdict
// is a pure function of the two multisets (insertion order never matters),
// the union verdict follows from per-shard histograms alone, without
// re-ingesting any raw stream. The coordinator's path is a sort-free one:
// each shard exports its histogram as a run of bins already in value order
// (AppendSorted, which sorts only values new since its last export), and
// MergedMax merges the runs k-way and sweeps them once. That costs
// O(distinct values) per verdict, independent of how much traffic the
// shards absorbed since the last checkpoint.
//
// MergeFrom is the stateful fold: it turns one accumulator into the union
// of several, for callers that keep ingesting into the merged result
// (engine-to-engine merges).
package setsystem

// MergeFrom folds other's stream and sample multisets into a: afterwards a
// holds the multiset unions, exactly as if every element ever added to other
// had been added to a directly. Max on the merged accumulator is therefore
// bit-identical (error AND witness) to MaxDiscrepancy on the concatenated
// streams and samples. other is not modified, and may have pending updates
// (a Max call on it is not required first).
//
// Both accumulators must come from the same set system (mode and universe);
// MergeFrom panics otherwise, and on a nil or aliased source.
func (a *Accumulator) MergeFrom(other *Accumulator) {
	if other == nil || other == a {
		panic("setsystem: MergeFrom needs a distinct non-nil source")
	}
	if a.mode != other.mode || a.universe != other.universe {
		panic("setsystem: MergeFrom across different set systems")
	}
	for _, ob := range other.bins {
		v, cx, cs := ob.Val, ob.Cx, ob.Cs
		if cx == 0 && cs == 0 {
			// A slot whose sample copies were all evicted and that holds
			// no stream mass contributes nothing to any verdict.
			continue
		}
		s := a.slot(v)
		bn := &a.bins[s]
		bn.Cx += cx
		bn.Cs += cs
		if b := a.blockOf[s]; b != nil {
			b.sumCx += cx
			b.sumCs += cs
			if cx > 0 && bn.Cx == cx {
				// The slot's stream count was zero before this merge.
				b.nzCx++
			}
			if bn.Cx > b.maxCx {
				b.maxCx = bn.Cx
			}
			b.touched = true
			b.hullValid = false
		}
	}
	a.nx += other.nx
	a.ns += other.ns
}

// Bin is one distinct value's multiplicities: Cx copies in the stream, Cs
// in the sample.
type Bin struct {
	Val, Cx, Cs int64
}

// AppendSorted appends a's nonzero bins to dst in ascending value order and
// returns the extended slice. It first places the values that are new since
// the last Max or AppendSorted into the sorted blocks — the only sorting it
// does — and then walks the blocks. Placement changes the block layout,
// never the multisets, so verdicts and snapshots are unaffected. Bins whose
// sample copies were all evicted and that hold no stream mass are skipped.
func (a *Accumulator) AppendSorted(dst []Bin) []Bin {
	a.placePending()
	for _, b := range a.blocks {
		for _, s := range b.slots {
			if bn := a.bins[s]; bn.Cx != 0 || bn.Cs != 0 {
				dst = append(dst, bn)
			}
		}
	}
	return dst
}

// mergeFanIn is the run count MergedMax merges without allocating.
const mergeFanIn = 16

// MergedMax returns the exact discrepancy, under sys, of the union of runs:
// each run a value-sorted bin sequence from AppendSorted, with values that
// may repeat across runs (their multiplicities add). The result (error AND
// witness) is bit-identical to Max on an accumulator that MergeFrom-folded
// the runs' sources, hence to MaxDiscrepancy on the concatenated streams
// and samples whenever the union stream is non-empty. The runs are read,
// never modified; up to 16 runs merge without allocating.
//
// sys must be one of this package's four set systems; MergedMax panics
// otherwise.
func MergedMax(sys SetSystem, runs [][]Bin) Discrepancy {
	var w binSweep
	switch s := sys.(type) {
	case Prefixes:
		w.mode, w.universe = accPrefixes, s.n
	case Intervals:
		w.mode, w.universe = accIntervals, s.n
	case Singletons:
		w.mode, w.universe = accSingletons, s.n
	case Suffixes:
		w.mode, w.universe = accSuffixes, s.n
	default:
		panic("setsystem: MergedMax needs a built-in set system")
	}
	// live lists the nonempty runs still being read, pos their read
	// positions and hv their head values (hv[q] is
	// runs[live[q]][pos[q]].Val), so choosing the smallest head scans one
	// small array and advancing a run writes no pointer.
	var liveBuf, posBuf [mergeFanIn]int
	var hvBuf [mergeFanIn]int64
	live, pos, hv := liveBuf[:0], posBuf[:0], hvBuf[:0]
	for i, r := range runs {
		for _, b := range r {
			w.nx += b.Cx
			w.ns += b.Cs
		}
		if len(r) > 0 {
			live, pos, hv = append(live, i), append(pos, 0), append(hv, r[0].Val)
		}
	}
	if w.nx == 0 {
		return Discrepancy{}
	}
	if len(live) == 1 {
		w.sweep(runs[live[0]])
		return w.result()
	}

	// Merge a chunk of distinct values at a time into a stack buffer, then
	// sweep it: two tight loops instead of one that juggles both states.
	// take consumes head q and reports whether its run ran out (another
	// run's head then sits at q); k is always the smallest head.
	take := func(q int) (cx, cs int64, gone bool) {
		r, p := runs[live[q]], pos[q]
		cx, cs = r[p].Cx, r[p].Cs
		if p++; p < len(r) {
			pos[q], hv[q] = p, r[p].Val
			return cx, cs, false
		}
		last := len(live) - 1
		live[q], pos[q], hv[q] = live[last], pos[last], hv[last]
		live, pos, hv = live[:last], pos[:last], hv[:last]
		return cx, cs, true
	}
	var chunk [256]Bin
	k := argmin(hv)
	for len(live) > 0 {
		n := 0
		for ; n < len(chunk) && len(live) > 0; n++ {
			v := hv[k]
			cx, cs, _ := take(k)
			if len(live) > 0 {
				k = argmin(hv)
			}
			if len(live) > 0 && hv[k] == v {
				// v repeats across runs. k is its first remaining copy, so
				// one scan from k takes them all.
				for q := k; q < len(live); {
					if hv[q] != v {
						q++
						continue
					}
					dx, ds, gone := take(q)
					cx, cs = cx+dx, cs+ds
					if !gone {
						q++
					}
				}
				if len(live) > 0 {
					k = argmin(hv)
				}
			}
			chunk[n] = Bin{v, cx, cs}
		}
		w.sweep(chunk[:n])
	}
	return w.result()
}

// argmin returns the index of the first smallest element of the nonempty
// vs. Which head is smallest is a coin flip for interleaved runs, so the
// choice is arithmetic rather than a branch the CPU would mispredict.
func argmin(vs []int64) int {
	j, m := 0, vs[0]
	for k := 1; k < len(vs); k++ {
		v := vs[k]
		j += (k - j) * b2i(v < m)
		m = min(m, v)
	}
	return j
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// binSweep is MergedMax's sweep state over distinct values in ascending
// order, applying cdfScan's exact integer rules: strict comparisons, so
// the first position attaining an extremum wins.
type binSweep struct {
	mode     accMode
	universe int64
	nx, ns   int64 // |X|, |S| of the union

	num             int64 // running numerator Cx(t)*|S| - Cs(t)*|X|
	bestAbs, bestAt int64 // max |num| (singletons: max per-value deviation)
	maxD, maxAt     int64
	minD, minAt     int64
	minV, maxV      int64 // stream extent, for an empty sample
	seen            bool
}

// sweep folds the next bins, distinct values in ascending order, into w.
func (w *binSweep) sweep(bins []Bin) {
	nx, ns := w.nx, w.ns
	switch {
	case w.mode == accSingletons && ns == 0:
		// The heaviest value: numerator over |X| alone.
		for i := range bins {
			if b := &bins[i]; b.Cx > w.bestAbs {
				w.bestAbs, w.bestAt = b.Cx, b.Val
			}
		}
	case w.mode == accSingletons:
		for i := range bins {
			b := &bins[i]
			if d := abs64(b.Cx*ns - b.Cs*nx); d > w.bestAbs {
				w.bestAbs, w.bestAt = d, b.Val
			}
		}
	case ns == 0:
		// The stream's extent: with no sample, every nonzero bin has
		// cx > 0.
		if len(bins) > 0 {
			if !w.seen {
				w.minV, w.seen = bins[0].Val, true
			}
			w.maxV = bins[len(bins)-1].Val
		}
	default:
		num, bestAbs, maxD, minD := w.num, w.bestAbs, w.maxD, w.minD
		for i := range bins {
			b := &bins[i]
			num += b.Cx*ns - b.Cs*nx
			if a := abs64(num); a > bestAbs {
				bestAbs, w.bestAt = a, b.Val
			}
			if num > maxD {
				maxD, w.maxAt = num, b.Val
			}
			if num < minD {
				minD, w.minAt = num, b.Val
			}
		}
		w.num, w.bestAbs, w.maxD, w.minD = num, bestAbs, maxD, minD
	}
}

// result turns the finished sweep into the Discrepancy Max reports.
func (w *binSweep) result() Discrepancy {
	denom := float64(w.nx) * float64(w.ns)
	switch {
	case w.mode == accSingletons && w.ns == 0:
		return Discrepancy{Err: float64(w.bestAbs) / float64(w.nx), Lo: w.bestAt, Hi: w.bestAt}
	case w.mode == accSingletons:
		if w.bestAbs == 0 {
			return Discrepancy{}
		}
		return Discrepancy{Err: float64(w.bestAbs) / denom, Lo: w.bestAt, Hi: w.bestAt}
	case w.ns == 0:
		// The range containing everything has density 1 in the stream and
		// 0 in the empty sample.
		switch w.mode {
		case accIntervals:
			return Discrepancy{Err: 1, Lo: w.minV, Hi: w.maxV}
		case accSuffixes:
			return Discrepancy{Err: 1, Lo: min(w.maxV+1, w.universe), Hi: w.universe}
		default:
			return Discrepancy{Err: 1, Lo: 1, Hi: w.maxV}
		}
	}
	switch w.mode {
	case accPrefixes:
		return Discrepancy{Err: float64(w.bestAbs) / denom, Lo: 1, Hi: w.bestAt}
	case accSuffixes:
		return Discrepancy{Err: float64(w.bestAbs) / denom, Lo: min(w.bestAt+1, w.universe), Hi: w.universe}
	}
	lo, hi := w.minAt+1, w.maxAt
	if w.maxAt < w.minAt {
		lo, hi = w.maxAt+1, w.minAt
	}
	if lo > hi {
		// Degenerate: both extrema at the baseline; no deviation.
		lo, hi = 1, 1
	}
	return Discrepancy{Err: float64(w.maxD-w.minD) / denom, Lo: lo, Hi: hi}
}

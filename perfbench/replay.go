package main

import (
	"fmt"
	"time"

	"robustsample/internal/game"
	"robustsample/internal/rng"
	irt "robustsample/internal/runtime"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/shard"
)

// traceReport fills a serve workload's per-layer metrics: spans around the
// public calls of the traced windows, the checkpoint codec on the final
// engine, and the stage replay with its ledger.
func (p serveParams) traceReport(o *outcome, cfg runConfig, st *serveState, m *measured, queries []querySample, h shard.Health, final shard.Verdict[int64], l *lane) error {
	spans := cfg.rec.spans()
	offers := scaled(durations(spans, "shard.offer_batch"), time.Microsecond)
	o.layer["shard.offer_batch_us.p50"] = median(offers)
	o.layer["shard.offer_batch_us.tail"] = tailOrMax(offers)
	o.layer["shard.verdict_ms.p50"] = median(scaled(durations(spans, "shard.verdict"), time.Millisecond))
	o.layer["shard.flush_ms"] = median(scaled(durations(spans, "shard.flush"), time.Millisecond))
	lo, hi := h.Shards[0].Rounds, h.Shards[0].Rounds
	for _, sh := range h.Shards {
		lo, hi = min(lo, sh.Rounds), max(hi, sh.Rounds)
	}
	o.layer["shard.round_skew"] = float64(hi) / float64(lo)
	o.layer["shard.checkpoints"] = float64(h.Checkpoints)
	o.layer["shard.lost_rounds"] = float64(h.LostRounds)
	reportTraced(o, m, queries)

	// Checkpoint codec: the public Snapshot/Restore wrap the internal
	// shard.AppendState/LoadState with a fixed preamble.
	root := l.start("codec", 0)
	id := l.start("shard.checkpoint", root)
	snap, err := st.eng.Snapshot()
	l.finish(id)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fresh, err := p.newEngine(cfg.seed, false)
	if err != nil {
		return err
	}
	id = l.start("shard.restore", root)
	err = fresh.Restore(snap)
	l.finish(id)
	l.finish(root)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	rv, rerr := fresh.Verdict()
	o.verify("restore-round-trip", rerr == nil && rv == final, "restored %+v (err %v), live %+v", rv, rerr, final)
	spans = cfg.rec.spans()
	o.layer["shard.checkpoint_ms"] = float64(sumDur(durations(spans, "shard.checkpoint"))) / 1e6
	o.layer["shard.checkpoint_mb"] = float64(len(snap)) / (1 << 20)
	o.layer["shard.restore_ms"] = float64(sumDur(durations(spans, "shard.restore"))) / 1e6

	p.replay(cfg.seed, st.pool, l)
	spans = cfg.rec.spans()
	n := p.replayElems
	stage := func(name string) float64 { return perElemNs(sumDur(durations(spans, name)), n) }
	fill, route, ring := stage("rng.fill"), stage("runtime.route"), stage("runtime.ring")
	admit, update := stage("sampler.admit"), stage("setsystem.update")
	o.layer["rng.fill_ns_per_elem"] = fill
	o.layer["runtime.route_ns_per_elem"] = route
	o.layer["runtime.ring_ns_per_elem"] = ring
	o.layer["sampler.admit_ns_per_elem"] = admit
	o.layer["setsystem.update_ns_per_elem"] = update
	o.layer["setsystem.merge_ms"] = median(scaled(durations(spans, "setsystem.merge"), time.Millisecond))

	// The ledger sums the disjoint stages an element passes through; admit
	// (and the fill inside it) runs within update, so it is not added again.
	sum := route + ring + update
	e2e := 1000 / m.ingestMelemS(false)
	o.layer["ledger.sum_ns_per_elem"] = sum
	o.layer["ledger.e2e_ns_per_elem"] = e2e
	o.layer["ledger.gap_pct"] = 100 * (e2e - sum) / e2e
	o.note("ledger %s: route %.2f + ring %.2f + update %.2f (of which admit %.2f, fill %.2f) = %.2f ns/elem; end-to-end %.2f ns/elem; gap %.1f%%",
		p.name, route, ring, update, admit, fill, sum, e2e, 100*(e2e-sum)/e2e)
	return nil
}

// replayShard is one shard's stage replay state. The update replica and the
// admit replica see the same chunks with the same seed, so admission runs
// in the same regime in both.
type replayShard struct {
	ring           *irt.Ring
	out            []int64
	upd, adm       *sampler.Reservoir[int64]
	updRNG, admRNG *rng.RNG
	acc            *setsystem.Accumulator
}

// replay passes the workload's generated batches, on one goroutine,
// through the exported functions the serving pipeline calls, one span per
// stage per batch: rng.FillUniform64, runtime.RouteHashBatch,
// Ring.PushBatch + PopInto, Reservoir.OfferBatch and
// game.IngestBatchSynced. The populate prefix is replayed first, untimed,
// so the timed batches see the live run's accumulator regime. Finally it
// times the verdict's merge: S x Accumulator.MergeFrom + Max.
func (p serveParams) replay(seed uint64, pool []int64, l *lane) {
	sys := setsystem.NewPrefixes(p.universe)
	root := rng.NewWithStream(seed, replayStream)
	shards := make([]*replayShard, serveShards)
	for s := range shards {
		r := root.Split()
		hi, lo := r.State()
		shards[s] = &replayShard{
			ring:   irt.NewRing(1024),
			upd:    sampler.NewReservoir[int64](serveK),
			adm:    sampler.NewReservoir[int64](serveK),
			updRNG: r,
			admRNG: rng.New(0),
			acc:    sys.NewAccumulator(),
		}
		shards[s].admRNG.SetState(hi, lo)
	}
	fillRNG := root.Split()
	fillBuf := make([]uint64, serveBatch)
	dst := make([]int, serveBatch)
	buckets := make([][]int64, serveShards)
	popBuf := make([]int64, serveChunk)

	step := func(xs []int64, timed bool) {
		var trace *lane
		if timed {
			trace = l
		}
		bid := trace.start("replay.batch", 0)
		id := trace.start("rng.fill", bid)
		fillRNG.FillUniform64(fillBuf[:len(xs)])
		trace.finish(id)

		id = trace.start("runtime.route", bid)
		irt.RouteHashBatch(xs, dst[:len(xs)], serveShards)
		trace.finish(id)

		id = trace.start("runtime.ring", bid)
		for s := range buckets {
			buckets[s] = buckets[s][:0]
		}
		for i, x := range xs {
			buckets[dst[i]] = append(buckets[dst[i]], x)
		}
		for s, b := range buckets {
			sh := shards[s]
			sh.out = sh.out[:0]
			for len(b) > 0 {
				b = b[sh.ring.PushBatch(b):]
				for k := sh.ring.PopInto(popBuf); k > 0; k = sh.ring.PopInto(popBuf) {
					sh.out = append(sh.out, popBuf[:k]...)
				}
			}
		}
		trace.finish(id)

		id = trace.start("sampler.admit", bid)
		for _, sh := range shards {
			for c := sh.out; len(c) > 0; c = c[min(len(c), serveChunk):] {
				sh.adm.OfferBatch(c[:min(len(c), serveChunk)], sh.admRNG)
			}
		}
		trace.finish(id)

		id = trace.start("setsystem.update", bid)
		for _, sh := range shards {
			for c := sh.out; len(c) > 0; c = c[min(len(c), serveChunk):] {
				game.IngestBatchSynced(sh.upd, sh.upd, sh.acc, c[:min(len(c), serveChunk)], sh.updRNG)
			}
		}
		trace.finish(id)
		trace.finish(bid)
	}
	for off := 0; off < p.populateElems; off += serveBatch {
		step(pool[off:off+serveBatch], false)
	}
	for j := 0; j < p.replayElems/serveBatch; j++ {
		step(p.batchAt(pool, j), true)
	}

	global := sys.NewAccumulator()
	for rep := 0; rep < 3; rep++ {
		id := l.start("setsystem.merge", 0)
		global.Reset()
		for _, sh := range shards {
			global.MergeFrom(sh.acc)
		}
		global.Max()
		l.finish(id)
	}
}

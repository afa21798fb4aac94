package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"robustsample/internal/rng"
	irt "robustsample/internal/runtime"
	"robustsample/shard"
	"robustsample/sketch"
)

// The serve workloads feed shard.Serving from one producer lane in a closed
// loop while one open-loop client reads the merged Verdict.
const (
	serveShards   = 4
	serveK        = 1024
	serveBatch    = 4096
	serveChunk    = 512 // the pipeline's default per-lock chunk, mirrored by the replay
	offerDeadline = 2 * time.Second
	feedChunk     = 1 << 16 // serial OfferBatch slice for populate and reference feeds

	inputStream  = 0x7065726662656e63 // RNG stream of the workload inputs
	replayStream = 0x7265706c6179     // RNG stream of the stage replay's samplers
)

// serveParams sizes one serve workload.
type serveParams struct {
	name            string
	universe        int64
	poolElems       int // generated input pool, cycled by the producer
	populateElems   int // stream prefix ingested serially during set-up
	queryEvery      time.Duration
	checkpointEvery int
	replayElems     int // elements the traced stage replay times
}

// serveDense fits the accumulator's dense path: the runtime and sampler
// admission do most of the work.
var serveDense = serveParams{
	name:          "serve-dense",
	universe:      1 << 12,
	poolElems:     1 << 22,
	populateElems: 1 << 22,
	queryEvery:    10 * time.Millisecond,
	replayElems:   1 << 22,
}

// serveSparse keeps ~1M distinct values live, so the accumulator's hash
// index, histogram merge and checkpoint codec dominate.
var serveSparse = serveParams{
	name:            "serve-sparse",
	universe:        1 << 20,
	poolElems:       1 << 22,
	populateElems:   1 << 22,
	queryEvery:      time.Second,
	checkpointEvery: 1 << 20,
	replayElems:     1 << 21,
}

type serveState struct {
	pool []int64
	eng  *shard.Engine[int64]
}

func (p serveParams) newEngine(seed uint64, serving bool) (*shard.Engine[int64], error) {
	u, err := sketch.NewInt64Universe(p.universe)
	if err != nil {
		return nil, err
	}
	opts := []shard.Option{
		shard.WithShards(serveShards),
		shard.WithRouter(shard.RouterHash),
		shard.WithReservoir(serveK),
		shard.WithSystem(shard.Prefixes),
		shard.WithSeed(seed),
	}
	if serving {
		opts = append(opts, shard.WithPipeline(shard.PipelineConfig{Producers: 1, CheckpointEvery: p.checkpointEvery}))
	}
	return shard.New(u, opts...)
}

// uniformPool draws n values uniformly from [1, universe].
func uniformPool(seed uint64, universe int64, n int) []int64 {
	r := rng.NewWithStream(seed, inputStream)
	pool := make([]int64, n)
	for i := range pool {
		pool[i] = r.Int63n(universe) + 1
	}
	return pool
}

// feed ingests xs serially.
func feed(eng *shard.Engine[int64], xs []int64) error {
	for len(xs) > 0 {
		n := min(len(xs), feedChunk)
		if _, err := eng.OfferBatch(xs[:n]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// setup generates the inputs, builds the engine and ingests the populate
// prefix, so the measured window starts in the steady state.
func (p serveParams) setup(seed uint64) (*serveState, error) {
	pool := uniformPool(seed, p.universe, p.poolElems)
	eng, err := p.newEngine(seed, true)
	if err != nil {
		return nil, err
	}
	if err := feed(eng, pool[:p.populateElems]); err != nil {
		return nil, err
	}
	return &serveState{pool: pool, eng: eng}, nil
}

// batchAt returns the j-th measured batch: the producer walks the pool
// cyclically from where the populate prefix ended.
func (p serveParams) batchAt(pool []int64, j int) []int64 {
	off := (p.populateElems + j*serveBatch) % len(pool)
	return pool[off : off+serveBatch]
}

func (p serveParams) run(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st, setupS, err := medianSetup(cfg, func() (*serveState, error) { return p.setup(cfg.seed) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.e2e["setup_s"] = setupS
	srv, err := st.eng.Serve(context.Background())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	prod, err := srv.Producer(0)
	if err != nil {
		return nil, err
	}
	prodLane, queryLane := cfg.rec.lane(), cfg.rec.lane()

	epoch := time.Now()
	ql := startOpenLoop(epoch, p.queryEvery, queryLane, []string{"shard.verdict"}, func(int) error {
		_, err := srv.Verdict()
		return err
	})
	m := &measured{}
	partial := map[int]int{} // batch index -> elements accepted, for batches a deadline cut short
	batches := 0
	var lastEpoch shard.Epoch
	offer := func(l *lane, root int64) (int, int, error) {
		b := p.batchAt(st.pool, batches)
		ctx, cancel := context.WithTimeout(context.Background(), offerDeadline)
		defer cancel()
		id := l.start("shard.offer_batch", root)
		n, err := prod.OfferBatchContext(ctx, b)
		l.finish(id)
		if errors.Is(err, shard.ErrBackpressure) {
			m.refused += int64(len(b) - n)
			partial[batches] = n
			err = nil
		}
		batches++
		return len(b), n, err
	}
	barrier := func(l *lane, root int64) {
		id := l.start("shard.flush", root)
		lastEpoch = srv.Flush()
		l.finish(id)
	}
	err = m.drive(epoch, cfg.seconds, cfg.trace, prodLane, ql, offer, barrier)
	queries := ql.halt()
	if err != nil {
		return nil, fmt.Errorf("offer: %w", err)
	}
	verdict, verr := srv.Verdict()
	health := srv.Health()
	srv.Close()
	offered, accepted, refused := m.offered, m.accepted, m.refused

	o.e2e["ingest_melem_s"] = m.ingestMelemS(false)
	o.e2e["live_heap_mb"] = liveHeapMB(int64(cap(st.pool)) * 8)
	runtime.KeepAlive(st.eng)
	reportQueries(o, m.queriesIn(queries, false))
	qerrs := countFailed(queries)
	o.attempted += offered + int64(len(queries))
	o.failed += refused + qerrs
	o.note("failed_ratio %.6g ratio (%d refused elements + %d failed queries of %d elements and %d queries)",
		float64(refused+qerrs)/float64(offered+int64(len(queries))), refused, qerrs, offered, len(queries))
	o.note("%s accepted %d elements in %d batches; %d queries; whole-run ingest %.6g Melem/s, untraced window rates %.4g",
		p.name, accepted, batches, len(queries), m.meanMelemS(), m.rates(false))

	// Correctness: the live session against a serial engine fed the same
	// accepted stream, computed outside the timed window.
	o.verify("flush-applied", lastEpoch.Applied == uint64(accepted),
		"Flush().Applied=%d, accepted=%d", lastEpoch.Applied, accepted)
	o.verify("health", health.LostRounds == 0 && !health.Degraded(),
		"lost rounds %d, degraded %v", health.LostRounds, health.Degraded())
	ref, err := p.reference(cfg.seed, st.pool, batches, partial)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	rv, rerr := ref.Verdict()
	o.verify("verdict-vs-serial", verr == nil && rerr == nil && verdict == rv,
		"live %+v (err %v), serial %+v (err %v)", verdict, verr, rv, rerr)

	if cfg.trace {
		if err := p.traceReport(o, cfg, st, m, queries, health, verdict, prodLane); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// reference replays the populate prefix and every accepted element into a
// serial engine with the same seed. Hash routing sends each value to the
// same shard in both, so per-shard substreams, samples and verdicts match
// bit for bit.
func (p serveParams) reference(seed uint64, pool []int64, batches int, partial map[int]int) (*shard.Engine[int64], error) {
	ref, err := p.newEngine(seed, false)
	if err != nil {
		return nil, err
	}
	if err := feed(ref, pool[:p.populateElems]); err != nil {
		return nil, err
	}
	buf := make([]int64, 0, feedChunk)
	for j := 0; j < batches; j++ {
		b := p.batchAt(pool, j)
		if n, ok := partial[j]; ok {
			b = acceptedPart(b, n)
		}
		if len(buf)+len(b) > feedChunk {
			if err := feed(ref, buf); err != nil {
				return nil, err
			}
			buf = buf[:0]
		}
		buf = append(buf, b...)
	}
	return ref, feed(ref, buf)
}

// acceptedPart returns the elements of a batch that a deadline cut short
// after n accepted elements. The live producer routes a batch, buckets it
// by shard and enqueues the buckets in shard order, so the accepted
// elements are the buckets of the lower shards plus a prefix of one
// bucket; the result keeps batch order.
func acceptedPart(b []int64, n int) []int64 {
	dst := make([]int, len(b))
	irt.RouteHashBatch(b, dst, serveShards)
	var quota [serveShards]int
	for _, d := range dst {
		quota[d]++
	}
	for s := range quota {
		quota[s] = min(quota[s], n)
		n -= quota[s]
	}
	var out []int64
	for i, x := range b {
		if quota[dst[i]] > 0 {
			quota[dst[i]]--
			out = append(out, x)
		}
	}
	return out
}

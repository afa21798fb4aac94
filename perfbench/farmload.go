package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"robustsample/farm"
	"robustsample/internal/rng"
	"robustsample/sketch"
)

// farm-churn: one producer feeds Zipf-keyed batches to a million-tenant
// reservoir farm that holds only an eighth of its tenants hot, while an
// open-loop client alternates Stats and a selective GlobalQuantile.
const (
	farmPopulation = 1 << 20
	farmK          = 16
	farmShards     = 32
	farmMaxHot     = farmPopulation / 8
	farmBatch      = 512
	farmUniverse   = 1 << 20
	farmPoolElems  = 1 << 21
	farmZipf       = 1.1
	farmQueryEvery = 50 * time.Millisecond
	farmSelectMod  = 1024
	farmHotElems   = 1 << 20 // elements the traced hot-path replay offers
)

// farmSelected picks the tenants the selective GlobalQuantile reads.
func farmSelected(id farm.TenantID) bool { return id%farmSelectMod == 0 }

// farmState is a populated farm and its generated inputs: popXs[t] is the
// element tenant t receives during populate, and (ids[i], xs[i]) the
// measured stream, which the producer walks cyclically.
type farmState struct {
	popXs []int64
	ids   []farm.TenantID
	xs    []int64
	f     *farm.Farm[int64]
}

func (s *farmState) inputBytes() int64 {
	return int64(cap(s.popXs))*8 + int64(cap(s.ids))*8 + int64(cap(s.xs))*8
}

func newFarm(seed uint64, opts ...farm.Option) (*farm.Farm[int64], error) {
	u, err := sketch.NewInt64Universe(farmUniverse)
	if err != nil {
		return nil, err
	}
	opts = append([]farm.Option{farm.WithShards(farmShards), farm.WithSeed(seed)}, opts...)
	return farm.NewReservoirFarm[int64](u, farmK, opts...)
}

// setupFarm generates the inputs, builds the farm and contacts every tenant
// once, in id order, so all of them exist and most start cold.
func setupFarm(seed uint64) (*farmState, error) {
	r := rng.NewWithStream(seed, inputStream)
	st := &farmState{
		popXs: make([]int64, farmPopulation),
		ids:   make([]farm.TenantID, farmPoolElems),
		xs:    make([]int64, farmPoolElems),
	}
	for i := range st.popXs {
		st.popXs[i] = r.Int63n(farmUniverse) + 1
	}
	z := rng.NewZipf(farmPopulation, farmZipf)
	for i := range st.ids {
		st.ids[i] = farm.TenantID(z.Draw(r) - 1)
		st.xs[i] = r.Int63n(farmUniverse) + 1
	}
	f, err := newFarm(seed, farm.WithMaxHotTenants(farmMaxHot))
	if err != nil {
		return nil, err
	}
	st.f = f
	prod := f.NewProducer()
	ids := make([]farm.TenantID, farmBatch)
	for off := 0; off < farmPopulation; off += farmBatch {
		for i := range ids {
			ids[i] = farm.TenantID(off + i)
		}
		if _, err := prod.OfferBatch(ids, st.popXs[off:off+farmBatch]); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	return st, nil
}

func runFarmChurn(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	st, setupS, err := medianSetup(cfg, func() (*farmState, error) { return setupFarm(cfg.seed) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.e2e["setup_s"] = setupS
	f := st.f
	prod := f.NewProducer()
	prodLane, queryLane := cfg.rec.lane(), cfg.rec.lane()

	epoch := time.Now()
	ql := startOpenLoop(epoch, farmQueryEvery, queryLane, []string{"farm.stats", "farm.global_quantile"}, func(i int) error {
		if i%2 == 0 {
			f.Stats()
			return nil
		}
		_, err := f.GlobalQuantile(0.5, farmSelected)
		return err
	})
	m := &measured{}
	batches := 0
	offer := func(l *lane, root int64) (int, int, error) {
		off := batches * farmBatch % farmPoolElems
		batches++
		id := l.start("farm.offer_batch", root)
		_, err := prod.OfferBatch(st.ids[off:off+farmBatch], st.xs[off:off+farmBatch])
		l.finish(id)
		if err != nil {
			return farmBatch, 0, err
		}
		return farmBatch, farmBatch, nil
	}
	before := f.Stats()
	// Farm offers apply synchronously, so a window needs no barrier.
	err = m.drive(epoch, cfg.seconds, cfg.trace, prodLane, ql, offer, func(*lane, int64) {})
	after := f.Stats()
	queries := ql.halt()
	if err != nil {
		return nil, fmt.Errorf("offer: %w", err)
	}
	accepted := m.accepted

	o.e2e["ingest_melem_s"] = m.ingestMelemS(false)
	o.e2e["live_heap_mb"] = liveHeapMB(st.inputBytes())
	runtime.KeepAlive(f)
	reportQueries(o, m.queriesIn(queries, false))
	for kind, name := range []string{"Stats", "GlobalQuantile"} {
		var lat []float64
		for _, q := range m.queriesIn(queries, false) {
			if q.kind == kind {
				lat = append(lat, float64(q.latency())/1e6)
			}
		}
		o.note("farm-churn %s p50 %.6g ms over %d queries", name, median(lat), len(lat))
	}
	qerrs := countFailed(queries)
	o.attempted += accepted + int64(len(queries))
	o.failed += qerrs
	o.note("failed_ratio %.6g ratio (%d failed queries of %d elements and %d queries)",
		float64(qerrs)/float64(accepted+int64(len(queries))), qerrs, accepted, len(queries))
	o.note("farm-churn accepted %d elements in %d batches; %d queries; whole-run ingest %.6g Melem/s, untraced window rates %.4g",
		accepted, batches, len(queries), m.meanMelemS(), m.rates(false))

	// Correctness, outside the timed window.
	stats := f.Stats()
	o.verify("stats-offered", stats.Offered == uint64(farmPopulation)+uint64(accepted),
		"Stats().Offered=%d, populate %d + accepted %d", stats.Offered, farmPopulation, accepted)
	o.verify("tenants", f.Tenants() == farmPopulation, "Tenants()=%d, population %d", f.Tenants(), farmPopulation)
	if err := checkFarmReference(o, cfg.seed, st, batches); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := farmTraceReport(o, cfg, st, m, queries, before, after, prodLane); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkFarmReference compares the churned farm's selective GlobalQuantile
// (and the merged sample behind it) with an all-hot reference farm with
// the same seed, fed the same accepted stream. Tenant t draws only from RNG
// stream t and the merge visits tenants in shard and first-contact order,
// so the selected tenants' answer depends only on their own subsequences:
// the reference receives exactly those, which keeps it small. Equality
// shows eviction and hydration left every selected sample bit-identical.
func checkFarmReference(o *outcome, seed uint64, st *farmState, batches int) error {
	ref, err := newFarm(seed)
	if err != nil {
		return err
	}
	prod := ref.NewProducer()
	var ids []farm.TenantID
	var xs []int64
	for t := 0; t < farmPopulation; t += farmSelectMod {
		ids = append(ids, farm.TenantID(t))
		xs = append(xs, st.popXs[t])
	}
	for j := 0; j < batches; j++ {
		off := j * farmBatch % farmPoolElems
		for i := off; i < off+farmBatch; i++ {
			if farmSelected(st.ids[i]) {
				ids = append(ids, st.ids[i])
				xs = append(xs, st.xs[i])
			}
		}
	}
	if _, err := prod.OfferBatch(ids, xs); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	got, gerr := st.f.GlobalQuantile(0.5, farmSelected)
	want, werr := ref.GlobalQuantile(0.5, farmSelected)
	o.verify("global-quantile-vs-all-hot", gerr == nil && werr == nil && got == want,
		"churned %d (err %v), all-hot %d (err %v)", got, gerr, want, werr)
	mismatched := 0
	for t := 0; t < farmPopulation; t += farmSelectMod {
		got, gerr := st.f.Sample(farm.TenantID(t))
		want, werr := ref.Sample(farm.TenantID(t))
		if gerr != nil || werr != nil || !slices.Equal(got, want) {
			mismatched++
		}
	}
	o.verify("selected-samples-vs-all-hot", mismatched == 0,
		"%d of %d selected tenants' samples differ", mismatched, farmPopulation/farmSelectMod)
	gs, gn, gerr := st.f.GlobalSample(farmSelected)
	ws, wn, werr := ref.GlobalSample(farmSelected)
	o.verify("global-sample-vs-all-hot", gerr == nil && werr == nil && gn == wn && slices.Equal(gs, ws),
		"churned %d points over %d rounds (err %v), all-hot %d over %d (err %v)", len(gs), gn, gerr, len(ws), wn, werr)
	return nil
}

// farmTraceReport fills farm-churn's per-layer metrics: spans around the
// traced windows' public calls, counter deltas over the measured stretch,
// and replays of the resident hot path and the tenant codec on the final
// farm.
func farmTraceReport(o *outcome, cfg runConfig, st *farmState, m *measured, queries []querySample, before, after farm.Stats, l *lane) error {
	spans := cfg.rec.spans()
	offers := scaled(durations(spans, "farm.offer_batch"), time.Microsecond)
	o.layer["farm.offer_batch_us.p50"] = median(offers)
	o.layer["farm.offer_batch_us.tail"] = tailOrMax(offers)
	o.layer["farm.hydrations"] = float64(after.Hydrations - before.Hydrations)
	o.layer["farm.evictions"] = float64(after.Evictions - before.Evictions)
	o.layer["farm.hydrate_p99_us"] = float64(after.HydrateP99) / 1e3
	o.layer["farm.stats_ms.p50"] = median(scaled(durations(spans, "farm.stats"), time.Millisecond))
	o.layer["farm.global_quantile_ms.p50"] = median(scaled(durations(spans, "farm.global_quantile"), time.Millisecond))
	o.layer["farm.slab_mb"] = float64(after.SlabBytes) / (1 << 20)
	reportTraced(o, m, queries)

	// Resident hot path: Farm.OfferBatch on the most frequent tenant, which
	// the Zipf stream keeps hot.
	root := l.start("replay.farm", 0)
	hot := farm.TenantID(0)
	for off := 0; off < farmHotElems; off += farmBatch {
		id := l.start("farm.offer_hot", root)
		_, err := st.f.OfferBatch(hot, st.xs[off:off+farmBatch])
		l.finish(id)
		if err != nil {
			return fmt.Errorf("hot offer: %w", err)
		}
	}
	// Tenant codec: SnapshotTenant + RestoreTenant of each selected tenant.
	for t := 0; t < farmPopulation; t += farmSelectMod {
		id := l.start("farm.tenant_codec", root)
		b, err := st.f.SnapshotTenant(farm.TenantID(t))
		if err == nil {
			err = st.f.RestoreTenant(farm.TenantID(t), b)
		}
		l.finish(id)
		if err != nil {
			return fmt.Errorf("tenant codec: %w", err)
		}
	}
	l.finish(root)
	spans = cfg.rec.spans()
	o.layer["farm.hot_ns_per_elem"] = perElemNs(sumDur(durations(spans, "farm.offer_hot")), farmHotElems)
	o.layer["farm.tenant_codec_us"] = median(scaled(durations(spans, "farm.tenant_codec"), time.Microsecond))
	return nil
}

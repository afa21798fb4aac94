package farm

import (
	"robustsample/internal/runtime"
)

// Producer is a reusable keyed-batch ingest lane: it routes a batch of
// (tenant, element) pairs to their shards with the same 8-wide group-hash
// lane as the serving engine (runtime.RouteHashBatch), groups consecutive
// same-tenant runs, and applies each shard's share under one lock
// acquisition. All scratch is owned by the producer, so steady-state
// keyed ingest is allocation-free; a Producer is not safe for concurrent
// use (create one per goroutine — they share the farm safely).
type Producer[T any] struct {
	f    *Farm[T]
	keys []int64
	dst  []int
	pts  []int64
	sids [][]TenantID
	spts [][]int64
}

// NewProducer returns an ingest lane bound to the farm.
func (f *Farm[T]) NewProducer() *Producer[T] {
	return &Producer[T]{
		f:    f,
		sids: make([][]TenantID, len(f.shards)),
		spts: make([][]int64, len(f.shards)),
	}
}

// OfferBatch ingests len(ids) (tenant, element) pairs and returns how many
// elements entered their tenant's sample. Per tenant, elements keep their
// batch order, so results match offering each tenant its subsequence
// directly. Encoding errors reject the whole batch atomically; a
// per-tenant error (ErrTenantEvicted, ErrFarmFull) stops the batch with
// the elements applied so far counted in admitted.
//
//robust:hotpath
func (p *Producer[T]) OfferBatch(ids []TenantID, xs []T) (int, error) {
	if len(ids) != len(xs) {
		return 0, ErrBadBatch
	}
	if p.f.closed.Load() {
		return 0, ErrFarmClosed
	}
	p.pts = p.pts[:0]
	for _, x := range xs {
		pt, err := p.f.u.Encode(x)
		if err != nil {
			return 0, err
		}
		p.pts = append(p.pts, pt)
	}
	p.keys = p.keys[:0]
	for _, id := range ids {
		p.keys = append(p.keys, int64(id))
	}
	if cap(p.dst) < len(ids) {
		p.dst = make([]int, len(ids))
	}
	dst := p.dst[:len(ids)]
	runtime.RouteHashBatch(p.keys, dst, len(p.f.shards))
	for s := range p.sids {
		p.sids[s] = p.sids[s][:0]
		p.spts[s] = p.spts[s][:0]
	}
	for i, s := range dst {
		p.sids[s] = append(p.sids[s], ids[i])
		p.spts[s] = append(p.spts[s], p.pts[i])
	}
	admitted := 0
	for s := range p.sids {
		if len(p.sids[s]) == 0 {
			continue
		}
		adm, err := p.f.shards[s].applyKeyed(p.sids[s], p.spts[s])
		admitted += adm
		if err != nil {
			return admitted, err
		}
	}
	return admitted, nil
}

// keyedRun is one same-tenant run of a shard's keyed batch: it ends at
// element end (exclusive) and belongs to entry idx, or to a tenant not yet
// in the index when idx is -1.
type keyedRun struct {
	end, idx int32
}

// applyKeyed ingests a shard's share of a keyed batch, grouping
// consecutive same-tenant runs so a tenant's slot is attached once per
// run rather than once per element.
//
// It works in two passes. The first resolves every run head's entry
// before any run is applied: the lookups do not depend on each other, so
// at a million tenants their index-slot and entry cache misses overlap
// instead of each waiting behind the previous run's apply. The second
// applies the runs in order, creating unknown tenants there, in element
// order, so CLOCK order, eviction order and Stats counts are those of
// run-at-a-time ingest. A tombstone ends the first pass early: no
// operation under sh.mu can revive or drop a tenant, so the runs before it
// apply and its run fails with ErrTenantEvicted, as they would one by one.
func (sh *farmShard) applyKeyed(ids []TenantID, pts []int64) (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	runs := sh.runs[:0]
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		idx, ok := sh.index.lookup(ids[i])
		if !ok {
			idx = -1
		}
		runs = append(runs, keyedRun{end: int32(j), idx: idx})
		if ok && sh.entries[idx].state == stateTombstone {
			break
		}
		i = j
	}
	sh.runs = runs
	admitted, start := 0, 0
	for _, run := range runs {
		idx := run.idx
		if idx < 0 {
			// An earlier run of this batch may have created the tenant.
			var err error
			if idx, err = sh.lookupOrCreate(ids[start]); err != nil {
				return admitted, err
			}
		}
		adm, err := sh.applyRun(idx, pts[start:run.end])
		admitted += adm
		if err != nil {
			return admitted, err
		}
		start = int(run.end)
	}
	return admitted, nil
}

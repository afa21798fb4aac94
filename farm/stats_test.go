package farm

import (
	"testing"
)

// recountStats is the reference for the lifecycle partition in Stats: a
// full scan of every shard's entries and CLOCK lists.
func recountStats(f *Farm[int64]) (tenants, hot, cold, spilled, dropped, clock int) {
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := range sh.entries {
			switch sh.entries[i].state {
			case stateHot:
				hot++
			case stateCold:
				cold++
			case stateSpilled:
				spilled++
			case stateTombstone:
				dropped++
			}
		}
		clock += len(sh.hot)
		sh.mu.Unlock()
	}
	return hot + cold + spilled, hot, cold, spilled, dropped, clock
}

// checkRecount compares Stats and Tenants against the full recount and
// returns the Stats for step-specific assertions.
func checkRecount(t *testing.T, f *Farm[int64], step string) Stats {
	t.Helper()
	st := f.Stats()
	tenants, hot, cold, spilled, dropped, clock := recountStats(f)
	if st.Tenants != tenants || st.Hot != hot || st.Cold != cold || st.Spilled != spilled || st.Dropped != dropped {
		t.Fatalf("%s: Stats tenants/hot/cold/spilled/dropped = %d/%d/%d/%d/%d, recount %d/%d/%d/%d/%d",
			step, st.Tenants, st.Hot, st.Cold, st.Spilled, st.Dropped, tenants, hot, cold, spilled, dropped)
	}
	if clock != hot {
		t.Fatalf("%s: %d entries on the CLOCK lists, %d hot", step, clock, hot)
	}
	if got := f.Tenants(); got != tenants {
		t.Fatalf("%s: Tenants() = %d, recount %d", step, got, tenants)
	}
	live, dead := checkColdLogs(t, f)
	if st.ColdBytes != live+dead || st.ColdDeadBytes != dead {
		t.Fatalf("%s: Stats cold bytes/dead = %d/%d, recount %d/%d", step, st.ColdBytes, st.ColdDeadBytes, live+dead, dead)
	}
	return st
}

func offerOrFatal(t *testing.T, f *Farm[int64], id TenantID, xs []int64) {
	t.Helper()
	if _, err := f.OfferBatch(id, xs); err != nil {
		t.Fatalf("tenant %d: OfferBatch: %v", id, err)
	}
}

// TestFarmStatsMatchesRecount churns tenants through the lifecycle
// transitions — create, evict, spill, hydrate, Drop, RestoreTenant and
// Restore; TestFarmStatsMigrateToCold adds the Bernoulli migrate-to-cold
// demotion — and after each step checks the per-state counters Stats reads
// against a full recount of the entries.
func TestFarmStatsMatchesRecount(t *testing.T) {
	batch := []int64{1, 2, 3, 4}
	f, err := NewBernoulliFarm(mustU(t, 1000), 0.5, WithShards(2), WithMaxHotTenants(4), WithSpillDir(t.TempDir()))
	if err != nil {
		t.Fatalf("NewBernoulliFarm: %v", err)
	}
	defer f.Close()

	// Create: more tenants than the hot bound, so the CLOCK sweep spills.
	for id := TenantID(1); id <= 12; id++ {
		offerOrFatal(t, f, id, batch)
	}
	if st := checkRecount(t, f, "create+spill"); st.Spilled == 0 || st.Tenants != 12 {
		t.Fatalf("create+spill: %d spilled of %d tenants, want some of 12", st.Spilled, st.Tenants)
	}

	// Evict every hot tenant explicitly.
	for id := TenantID(1); id <= 12; id++ {
		if err := f.Evict(id); err != nil {
			t.Fatalf("Evict %d: %v", id, err)
		}
	}
	if st := checkRecount(t, f, "evict"); st.Hot != 0 {
		t.Fatalf("evict: %d tenants still hot", st.Hot)
	}

	// Hydrate: offers promote spilled tenants back into slab slots.
	before := f.Stats().Hydrations
	for id := TenantID(1); id <= 3; id++ {
		offerOrFatal(t, f, id, batch)
	}
	if st := checkRecount(t, f, "hydrate"); st.Hydrations == before || st.Hot == 0 {
		t.Fatalf("hydrate: hydrations %d -> %d, %d hot", before, st.Hydrations, st.Hot)
	}

	// Drop a hot, a spilled and an already-dropped tenant.
	for _, id := range []TenantID{1, 9} {
		if err := f.Drop(id); err != nil {
			t.Fatalf("Drop %d: %v", id, err)
		}
	}
	if err := f.Drop(1); err == nil {
		t.Fatal("second Drop of tenant 1 succeeded")
	}
	if st := checkRecount(t, f, "drop"); st.Dropped != 2 || st.Tenants != 10 {
		t.Fatalf("drop: %d dropped, %d tenants, want 2 and 10", st.Dropped, st.Tenants)
	}

	// RestoreTenant over a tombstone (revives it), a hot tenant, a spilled
	// tenant and a new id.
	snap, err := f.SnapshotTenant(2)
	if err != nil {
		t.Fatalf("SnapshotTenant: %v", err)
	}
	for _, id := range []TenantID{1, 2, 10, 100} {
		if err := f.RestoreTenant(id, snap); err != nil {
			t.Fatalf("RestoreTenant %d: %v", id, err)
		}
	}
	if st := checkRecount(t, f, "restore-tenant"); st.Dropped != 1 || st.Tenants != 12 {
		t.Fatalf("restore-tenant: %d dropped, %d tenants, want 1 and 12", st.Dropped, st.Tenants)
	}

	// Restore: snapshot, churn further, then roll the whole farm back.
	full, err := f.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := f.Stats()
	for id := TenantID(20); id <= 30; id++ {
		offerOrFatal(t, f, id, batch)
	}
	if err := f.Drop(3); err != nil {
		t.Fatalf("Drop 3: %v", err)
	}
	checkRecount(t, f, "churn")
	if err := f.Restore(full); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	st := checkRecount(t, f, "restore")
	if st.Tenants != want.Tenants || st.Dropped != want.Dropped || st.Cold != want.Tenants {
		t.Fatalf("restore: %d tenants (%d cold), %d dropped; want %d tenants, all cold, %d dropped",
			st.Tenants, st.Cold, st.Dropped, want.Tenants, want.Dropped)
	}
	for id := TenantID(4); id <= 8; id++ {
		offerOrFatal(t, f, id, batch)
	}
	checkRecount(t, f, "hydrate after restore")
}

// TestFarmStatsMigrateToCold covers the Bernoulli migrate-to-cold path: a
// sample that outgrows its size class when the arena cannot allocate the
// next class demotes the tenant to cold bytes mid-offer.
func TestFarmStatsMigrateToCold(t *testing.T) {
	// One 1024-slot chunk of the 8-item class is 114688 bytes; the next
	// class's chunk (180224 bytes) does not fit beside it.
	f, err := NewBernoulliFarm(mustU(t, 1000), 1, WithShards(1), WithMaxBytes(200000))
	if err != nil {
		t.Fatalf("NewBernoulliFarm: %v", err)
	}
	defer f.Close()
	offerOrFatal(t, f, 1, []int64{1, 2, 3})
	offerOrFatal(t, f, 2, []int64{1, 2, 3})
	checkRecount(t, f, "create")
	offerOrFatal(t, f, 1, []int64{4, 5, 6, 7, 8, 9, 10, 11, 12})
	st := checkRecount(t, f, "migrate-to-cold")
	if st.Cold != 1 || st.Hot != 1 || st.Evictions != 1 {
		t.Fatalf("migrate-to-cold: %d cold, %d hot, %d evictions; want 1, 1, 1", st.Cold, st.Hot, st.Evictions)
	}
	if err := f.Drop(1); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	checkRecount(t, f, "drop cold")
}

package farm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"robustsample/internal/rng"
)

// checkColdLogs walks every shard's cold log and checks it against the
// entry table: each live record's header names a cold entry whose offset
// and length point back at it, every cold entry owns exactly one record,
// and the dead markers sum to the log's dead count. It returns the log
// bytes held by cold entries and by dead records, headers included.
func checkColdLogs(tb testing.TB, f *Farm[int64]) (live, dead int64) {
	tb.Helper()
	for s, sh := range f.shards {
		sh.mu.Lock()
		owned := 0
		shDead := 0
		buf := sh.cold.buf
		for r := 0; r < len(buf); {
			if r+coldHeader > len(buf) {
				sh.mu.Unlock()
				tb.Fatalf("shard %d: truncated record header at %d of %d", s, r, len(buf))
			}
			h := binary.LittleEndian.Uint32(buf[r:])
			if h&coldDeadMark != 0 {
				n := coldHeader + int(h&^coldDeadMark)
				shDead += n
				r += n
				continue
			}
			if int(h) >= len(sh.entries) {
				sh.mu.Unlock()
				tb.Fatalf("shard %d: record at %d owned by entry %d of %d", s, r, h, len(sh.entries))
			}
			e := &sh.entries[h]
			if e.state != stateCold || e.spillOff != int64(r+coldHeader) {
				sh.mu.Unlock()
				tb.Fatalf("shard %d: record at %d owned by entry %d (state %d, offset %d)", s, r, h, e.state, e.spillOff)
			}
			owned++
			r += coldHeader + int(e.spillLen)
		}
		cold := 0
		for i := range sh.entries {
			if e := &sh.entries[i]; e.state == stateCold {
				cold++
				live += int64(coldHeader + int(e.spillLen))
			}
		}
		if owned != cold || shDead != sh.cold.dead {
			sh.mu.Unlock()
			tb.Fatalf("shard %d: %d owned records for %d cold entries; %d dead bytes walked, %d counted", s, owned, cold, shDead, sh.cold.dead)
		}
		dead += int64(shDead)
		sh.mu.Unlock()
	}
	return live, dead
}

// coldDead returns each shard's dead cold-log byte count. Only compaction
// (and Restore's reset) lowers it, so a drop between two reads counts a
// compaction.
func coldDead(f *Farm[int64]) []int {
	out := make([]int, len(f.shards))
	for s, sh := range f.shards {
		sh.mu.Lock()
		out[s] = sh.cold.dead
		sh.mu.Unlock()
	}
	return out
}

// churnTwin drives one op sequence against a churned farm, whose hot bound
// keeps most tenants in the cold log, and an all-hot twin with the same
// seed. Eviction, the cold log and its compaction must be invisible: every
// op returns the same result on both, and every tenant's SnapshotTenant
// bytes, like the whole-farm Snapshot, are identical.
type churnTwin struct {
	churn, twin *Farm[int64]
	next        int64
	xs          []int64
	compactions int
}

func newChurnTwin(tb testing.TB, bernoulli bool) *churnTwin {
	tb.Helper()
	build := func(opts ...Option) *Farm[int64] {
		opts = append([]Option{WithSeed(5), WithShards(2)}, opts...)
		var f *Farm[int64]
		var err error
		if bernoulli {
			f, err = NewBernoulliFarm(mustU(tb, 1000), 0.5, opts...)
		} else {
			f, err = NewReservoirFarm(mustU(tb, 1000), 8, opts...)
		}
		if err != nil {
			tb.Fatalf("new farm: %v", err)
		}
		tb.Cleanup(func() { f.Close() })
		return f
	}
	return &churnTwin{churn: build(WithMaxHotTenants(4)), twin: build()}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// step runs op on both farms, fails on any divergence and counts the
// churned farm's compactions.
func (c *churnTwin) step(tb testing.TB, what string, op func(f *Farm[int64]) (int, error)) {
	tb.Helper()
	before := coldDead(c.churn)
	got, gerr := op(c.churn)
	want, werr := op(c.twin)
	if got != want || !sameErr(gerr, werr) {
		tb.Fatalf("%s: churned (%d, %v), all-hot (%d, %v)", what, got, gerr, want, werr)
	}
	for s, d := range coldDead(c.churn) {
		if d < before[s] {
			c.compactions++
		}
	}
}

func (c *churnTwin) offer(tb testing.TB, id TenantID, n int) {
	c.xs = c.xs[:0]
	for i := 0; i < n; i++ {
		c.next++
		c.xs = append(c.xs, c.next*7919%1000+1)
	}
	c.step(tb, "offer", func(f *Farm[int64]) (int, error) { return f.OfferBatch(id, c.xs) })
}

func (c *churnTwin) drop(tb testing.TB, id TenantID) {
	c.step(tb, "drop", func(f *Farm[int64]) (int, error) { return 0, f.Drop(id) })
}

// restoreTenant installs tenant from's all-hot snapshot under id on both
// farms.
func (c *churnTwin) restoreTenant(tb testing.TB, from, id TenantID) {
	snap, err := c.twin.SnapshotTenant(from)
	if err != nil {
		return
	}
	c.step(tb, "restore-tenant", func(f *Farm[int64]) (int, error) { return 0, f.RestoreTenant(id, snap) })
}

// restore rolls the churned farm back to the all-hot twin's whole-farm
// snapshot, which must equal its own.
func (c *churnTwin) restore(tb testing.TB) {
	tb.Helper()
	snap := c.check(tb, 0)
	if err := c.churn.Restore(snap); err != nil {
		tb.Fatalf("Restore: %v", err)
	}
}

// check compares every tenant id below tenants and the whole-farm
// snapshot, validates the churned farm's cold logs, and returns the
// snapshot.
func (c *churnTwin) check(tb testing.TB, tenants int) []byte {
	tb.Helper()
	for id := TenantID(0); id < TenantID(tenants); id++ {
		got, gerr := c.churn.SnapshotTenant(id)
		want, werr := c.twin.SnapshotTenant(id)
		if !sameErr(gerr, werr) || !bytes.Equal(got, want) {
			tb.Fatalf("tenant %d: churned snapshot %x (%v), all-hot %x (%v)", id, got, gerr, want, werr)
		}
	}
	got, gerr := c.churn.Snapshot()
	want, werr := c.twin.Snapshot()
	if gerr != nil || werr != nil || !bytes.Equal(got, want) {
		tb.Fatalf("farm snapshots differ: churned %d bytes (%v), all-hot %d bytes (%v)", len(got), gerr, len(want), werr)
	}
	checkColdLogs(tb, c.churn)
	return want
}

// TestColdLogCompaction churns reservoir tenants through every sample size
// 1..k and Bernoulli tenants through growing samples, so cold records of
// many sizes come and go, with Drop, RestoreTenant and Restore mixed in.
// Across many compactions every tenant must stay byte-identical to an
// all-hot twin.
func TestColdLogCompaction(t *testing.T) {
	for _, bernoulli := range []bool{false, true} {
		c := newChurnTwin(t, bernoulli)
		const tenants = 100
		driver := rng.New(99)
		for step := 1; step <= 4000; step++ {
			// Skewed ids: head tenants fill up, tail tenants stay small.
			id := TenantID(driver.Intn(driver.Intn(tenants) + 1))
			switch op := driver.Intn(100); {
			case op < 90:
				c.offer(t, id, driver.Intn(3)+1)
			case op < 92:
				c.drop(t, id)
			case op < 98:
				c.restoreTenant(t, TenantID(driver.Intn(tenants)), id)
			default:
				c.restore(t)
			}
			if step%250 == 0 {
				c.check(t, tenants)
			}
		}
		c.check(t, tenants)
		if c.compactions < 10 {
			t.Fatalf("bernoulli=%v: %d cold-log compactions, want at least 10", bernoulli, c.compactions)
		}
		if st := c.churn.Stats(); st.Cold == 0 || st.ColdBytes == 0 {
			t.Fatalf("bernoulli=%v: churned farm ends with %d cold tenants in %d log bytes", bernoulli, st.Cold, st.ColdBytes)
		}
	}
}

// FuzzFarmChurn decodes an op sequence — offers of various lengths, Drop,
// Evict, RestoreTenant and Restore over a small tenant set — and runs it
// against a churned farm and its all-hot twin, requiring identical
// results and byte-identical tenant and farm snapshots.
func FuzzFarmChurn(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 5, 3, 1, 4, 2, 9, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7, 9, 0, 200, 1, 201})
	f.Add([]byte{0, 10, 3, 11, 3, 12, 3, 13, 3, 14, 3, 210, 0, 220, 1, 230, 2, 250})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 512 {
			return
		}
		const tenants = 12
		c := newChurnTwin(t, ops[0]&1 == 1)
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			id := TenantID(op % tenants)
			switch {
			case op < 192:
				c.offer(t, id, int(arg%8)+1)
			case op < 208:
				c.drop(t, id)
			case op < 224:
				// Evict only the churned farm: demotion must be invisible.
				_ = c.churn.Evict(id)
			case op < 248:
				c.restoreTenant(t, TenantID(arg%tenants), id)
			default:
				c.restore(t)
			}
		}
		c.check(t, tenants)
	})
}

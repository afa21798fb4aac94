package farm

import (
	"encoding/binary"
	"slices"
)

// coldLog is a shard's in-memory cold tier: one append-only byte log that
// holds every cold tenant's snapshot payload, so a million cold tenants
// cost one pointer-free allocation instead of a million heap objects for
// the GC to trace.
//
// Each record is a 4-byte header followed by the payload. While the record
// is live the header holds its owner's entry index, and the owner's
// spillOff/spillLen hold the payload's offset and length. free overwrites
// the header with coldDeadMark|length, so compact can sweep the log
// forward, slide live records down over dead ones in place and re-point
// their owners, without allocating. add compacts first once dead bytes
// reach 1/coldCompactDiv of the log, which bounds the slack, or 1/coldGrowDiv
// of it when the append would otherwise grow the buffer, so the buffer
// grows with the live payload rather than with churn. Either way a
// compaction reclaims a fixed fraction of the bytes it sweeps.
//
// Payload views (view) are valid only under the shard lock and only until
// the next add.
type coldLog struct {
	buf  []byte
	dead int // bytes of freed records, headers included
}

const (
	coldHeader     = 4
	coldDeadMark   = 1 << 31
	coldCompactDiv = 4
	coldGrowDiv    = 16
)

// add appends payload as a live record owned by entry owner and returns
// the payload's offset. payload must not alias the log. entries is the
// owning shard's entry table, re-pointed if add compacts.
func (l *coldLog) add(owner int32, payload []byte, entries []entry) int64 {
	size := coldHeader + len(payload)
	if l.dead > 0 && (l.dead*coldCompactDiv >= len(l.buf) ||
		l.dead*coldGrowDiv >= len(l.buf) && len(l.buf)+size > cap(l.buf)) {
		l.compact(entries)
	}
	l.buf = slices.Grow(l.buf, size)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(owner))
	off := int64(len(l.buf))
	l.buf = append(l.buf, payload...)
	return off
}

// view returns the payload of the live record at off.
func (l *coldLog) view(off int64, n int32) []byte {
	end := off + int64(n)
	return l.buf[off:end:end]
}

// free marks the record at payload offset off, of payload length n, dead.
func (l *coldLog) free(off int64, n int32) {
	binary.LittleEndian.PutUint32(l.buf[off-coldHeader:], coldDeadMark|uint32(n))
	l.dead += coldHeader + int(n)
}

// compact drops every dead record in one forward sweep, moving live
// records down in place and updating their owners' offsets.
func (l *coldLog) compact(entries []entry) {
	w := 0
	for r := 0; r < len(l.buf); {
		h := binary.LittleEndian.Uint32(l.buf[r:])
		if h&coldDeadMark != 0 {
			r += coldHeader + int(h&^coldDeadMark)
			continue
		}
		e := &entries[h]
		size := coldHeader + int(e.spillLen)
		if w != r {
			copy(l.buf[w:], l.buf[r:r+size])
			e.spillOff = int64(w + coldHeader)
		}
		w += size
		r += size
	}
	l.buf = l.buf[:w]
	l.dead = 0
}

// reset empties the log, keeping its storage.
func (l *coldLog) reset() {
	l.buf = l.buf[:0]
	l.dead = 0
}

package farm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// spillFile is a per-shard append-only segment file holding evicted
// tenants' snapshot payloads. Records are self-checking — an FNV-1a 64
// checksum prefixes each payload — so a torn write, bit rot or a stale
// offset surfaces as ErrBadSnapshot at hydration instead of corrupting a
// tenant silently. The file is a cache tier, not a durability log: it is
// truncated on open and deleted on close.
type spillFile struct {
	f    *os.File
	path string
	size int64
	live int64
	dead int64
	rec  []byte // record buffer reused by write and read
}

// spillHeader is the per-record overhead: an 8-byte checksum.
const spillHeader = 8

// fnv64a is FNV-1a over b (hand-rolled so the checksum stays allocation-
// and dependency-free).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// openSpill creates the shard's segment file inside dir.
func openSpill(dir string, shard int) (*spillFile, error) {
	path := filepath.Join(dir, fmt.Sprintf("farm-shard-%04d.spill", shard))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f, path: path}, nil
}

// write appends one checksummed record and returns its offset and length
// (payload length, excluding the header). The record is assembled in the
// file's reused record buffer.
func (sp *spillFile) write(payload []byte) (off int64, n int32, err error) {
	sp.rec = binary.LittleEndian.AppendUint64(sp.rec[:0], fnv64a(payload))
	sp.rec = append(sp.rec, payload...)
	off = sp.size
	if _, err := sp.f.WriteAt(sp.rec, off); err != nil {
		return 0, 0, err
	}
	sp.size += int64(len(sp.rec))
	sp.live += int64(len(sp.rec))
	return off, int32(len(payload)), nil
}

// read returns the payload of the record at off, verifying its checksum.
// Corrupt or truncated records fail with ErrBadSnapshot. The payload is a
// view into the file's reused record buffer, valid until the next read or
// write.
func (sp *spillFile) read(off int64, n int32) ([]byte, error) {
	size := spillHeader + int(n)
	if cap(sp.rec) < size {
		sp.rec = make([]byte, size)
	}
	rec := sp.rec[:size]
	if _, err := sp.f.ReadAt(rec, off); err != nil {
		return nil, fmt.Errorf("%w: spill record at %d: %v", ErrBadSnapshot, off, err)
	}
	payload := rec[spillHeader:]
	if fnv64a(payload) != binary.LittleEndian.Uint64(rec) {
		return nil, fmt.Errorf("%w: spill record at %d: checksum mismatch", ErrBadSnapshot, off)
	}
	return payload, nil
}

// retire marks the record of payload length n dead. When no live records
// remain the file is truncated, reclaiming the space.
func (sp *spillFile) retire(n int32) {
	rec := int64(spillHeader + int(n))
	sp.live -= rec
	sp.dead += rec
	if sp.live <= 0 && sp.size > 0 {
		if sp.f.Truncate(0) == nil {
			sp.size = 0
			sp.live = 0
			sp.dead = 0
		}
	}
}

// close closes and removes the segment file.
func (sp *spillFile) close() error {
	err := sp.f.Close()
	if rmErr := os.Remove(sp.path); err == nil {
		err = rmErr
	}
	return err
}

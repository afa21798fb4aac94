package snapshot

import (
	"slices"
	"testing"
)

// TestReaderReuseInt64Slices checks that a reusing Reader decodes the same
// values as a fresh one, into one buffer it keeps across Reset, without
// allocating once the buffer is large enough.
func TestReaderReuseInt64Slices(t *testing.T) {
	a := AppendInt64Slice(nil, []int64{3, 1, 4, 1, 5})
	b := AppendInt64Slice(nil, []int64{9, 2, 6})
	var r Reader
	r.ReuseInt64Slices()
	r.Reset(a)
	first := r.Int64Slice()
	if r.Err() != nil || !slices.Equal(first, NewReader(a).Int64Slice()) {
		t.Fatalf("decoded %v (%v), want %v", first, r.Err(), NewReader(a).Int64Slice())
	}
	r.Reset(b)
	second := r.Int64Slice()
	if r.Err() != nil || !slices.Equal(second, []int64{9, 2, 6}) || &first[0] != &second[0] {
		t.Fatalf("decoded %v (%v) into a different buffer: want [9 2 6] over the first slice's storage", second, r.Err())
	}
	r.Reset(AppendInt64Slice(nil, nil))
	if got := r.Int64Slice(); got != nil || r.Err() != nil {
		t.Fatalf("empty slice decoded to %v (%v), want nil", got, r.Err())
	}
	if avg := testing.AllocsPerRun(100, func() {
		r.Reset(a)
		_ = r.Int64Slice()
	}); avg != 0 {
		t.Fatalf("reusing Int64Slice: %.1f allocs/op, want 0", avg)
	}
	r.Reset(a[:12])
	if r.Int64Slice() != nil || r.Err() == nil {
		t.Fatal("truncated slice decoded without error")
	}
}

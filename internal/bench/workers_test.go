package bench

import (
	"bytes"
	"testing"

	"robustsample/internal/game"
)

// TestTablesByteIdenticalAcrossWorkerCounts renders a representative subset
// of experiments (covering EstimateRobustnessWorkers fan-out, continuous games,
// bespoke attack loops, and the martingale harness) serially and on an
// oversubscribed pool, and requires byte-identical tables.
func TestTablesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, id := range []string{"E1", "E3", "E5", "E15", "E18"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		render := func(workers int) []byte {
			var buf bytes.Buffer
			cfg := Config{Seed: 77, Trials: 6, Scale: 0.02, Workers: workers}
			exp.Run(cfg).Render(&buf)
			return buf.Bytes()
		}
		serial := render(1)
		for _, workers := range []int{0, 7} {
			if par := render(workers); !bytes.Equal(serial, par) {
				t.Fatalf("%s: workers=%d table differs from serial:\n%s\nvs\n%s",
					id, workers, par, serial)
			}
		}
	}
}

// TestTablesByteIdenticalAcrossChunkSizes renders experiments covering both
// game entry points (E1: one-shot games incl. batched Bernoulli ingest, E5:
// continuous games with the batched span loop) under different batch-ingest
// chunk caps and requires byte-identical tables: batch ingestion must be
// invariant to how streams are sliced.
func TestTablesByteIdenticalAcrossChunkSizes(t *testing.T) {
	defer func(old int) { game.SpanChunkCap = old }(game.SpanChunkCap)
	for _, id := range []string{"E1", "E5", "E18"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		render := func(chunk int) []byte {
			game.SpanChunkCap = chunk
			var buf bytes.Buffer
			cfg := Config{Seed: 41, Trials: 5, Scale: 0.02, Workers: 1}
			exp.Run(cfg).Render(&buf)
			return buf.Bytes()
		}
		base := render(8192)
		for _, chunk := range []int{1, 13, 500, 1 << 20} {
			if got := render(chunk); !bytes.Equal(base, got) {
				t.Fatalf("%s: chunk=%d table differs:\n%s\nvs\n%s", id, chunk, got, base)
			}
		}
	}
}

package bench

// One benchmark per experiment in DESIGN.md's index (E1-E18), each
// regenerating the corresponding table at a reduced scale per iteration.
// Run the full-scale tables with:
//
//	go run ./cmd/robustbench -all
//
// and individual ones with -exp E<n>.

import (
	"io"
	"testing"
)

// benchCfg is the per-iteration configuration: small but non-degenerate.
func benchCfg() Config {
	return Config{Seed: 1, Trials: 2, Scale: 0.05}
}

func runExp(b *testing.B, id string) {
	exp, ok := ByID(id)
	if !ok {
		b.Fatalf("experiment %s not found", id)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		exp.Run(cfg).Render(io.Discard)
	}
}

func BenchmarkExpE1BernoulliRobustness(b *testing.B)   { runExp(b, "E1") }
func BenchmarkExpE2ReservoirRobustness(b *testing.B)   { runExp(b, "E2") }
func BenchmarkExpE3BernoulliAttack(b *testing.B)       { runExp(b, "E3") }
func BenchmarkExpE4ReservoirAttack(b *testing.B)       { runExp(b, "E4") }
func BenchmarkExpE5ContinuousRobustness(b *testing.B)  { runExp(b, "E5") }
func BenchmarkExpE6QuantileSketches(b *testing.B)      { runExp(b, "E6") }
func BenchmarkExpE7HeavyHitters(b *testing.B)          { runExp(b, "E7") }
func BenchmarkExpE8RangeQueries(b *testing.B)          { runExp(b, "E8") }
func BenchmarkExpE9CenterPoints(b *testing.B)          { runExp(b, "E9") }
func BenchmarkExpE10MedianAttack(b *testing.B)         { runExp(b, "E10") }
func BenchmarkExpE11StaticAdaptiveGap(b *testing.B)    { runExp(b, "E11") }
func BenchmarkExpE12DistributedRouting(b *testing.B)   { runExp(b, "E12") }
func BenchmarkExpE13ClusteringPipeline(b *testing.B)   { runExp(b, "E13") }
func BenchmarkExpE14DeterministicCompare(b *testing.B) { runExp(b, "E14") }
func BenchmarkExpE15MartingaleStructure(b *testing.B)  { runExp(b, "E15") }
func BenchmarkExpE16WeightedReservoir(b *testing.B)    { runExp(b, "E16") }
func BenchmarkExpE17ReservoirAblation(b *testing.B)    { runExp(b, "E17") }
func BenchmarkExpE18ShardedSampling(b *testing.B)      { runExp(b, "E18") }

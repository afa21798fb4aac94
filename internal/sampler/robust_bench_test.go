package sampler_test

import (
	"testing"

	"robustsample/internal/core"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// Throughput of the Theorem 1.2-sized samplers on a benign stream.

func BenchmarkRobustReservoirOffer(b *testing.B) {
	p := core.Params{Eps: 0.1, Delta: 0.1, N: 1 << 20}
	res := sampler.NewReservoir[int64](core.ReservoirSize(p, setsystem.NewPrefixes(1<<20).LogCardinality()))
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Offer(int64(i), r)
	}
}

func BenchmarkRobustBernoulliOffer(b *testing.B) {
	p := core.Params{Eps: 0.1, Delta: 0.1, N: 1 << 20}
	s := sampler.NewBernoulli[int64](core.BernoulliRate(p, setsystem.NewPrefixes(1<<20).LogCardinality()))
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(int64(i), r)
	}
}

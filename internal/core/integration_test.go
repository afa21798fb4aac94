package core_test

// Integration tests exercising full pipelines across packages: parameter
// selection -> adaptive game -> exact verdict, and the end-to-end shapes of
// the paper's headline claims at reduced scale. Statistical assertions use
// fixed seeds and generous slack so they are deterministic and non-flaky.

import (
	"math"
	"testing"

	"robustsample/internal/adversary"
	"robustsample/internal/core"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
)

// TestTheorem12EndToEnd plays the full adaptive game at the Theorem 1.2
// reservoir size against the static and bisection adversaries and checks
// the failure rate stays near delta.
func TestTheorem12EndToEnd(t *testing.T) {
	const n = 3000
	universe := int64(1) << 18
	p := core.Params{Eps: 0.25, Delta: 0.15, N: n}
	sys := setsystem.NewPrefixes(universe)
	k := core.ReservoirSize(p, sys.LogCardinality())

	for _, mkAdv := range []func() game.Adversary{
		func() game.Adversary { return adversary.NewStaticUniform(universe) },
		func() game.Adversary { return adversary.NewBisection(universe, math.Log(float64(n))/float64(n)) },
	} {
		est := core.EstimateRobustnessWorkers(
			func() game.Sampler { return sampler.NewReservoir[int64](k) },
			mkAdv, sys, p, 20, 0, rng.New(101),
		)
		if est.Failure.Rate() > p.Delta+0.2 {
			t.Fatalf("robust reservoir failed %v of games vs %s",
				est.Failure.Rate(), mkAdv().Name())
		}
	}
}

// TestTheorem13EndToEnd verifies the attack's exact law: the prefix error
// equals 1 - |S|/n when the sample is non-empty.
func TestTheorem13EndToEnd(t *testing.T) {
	const n = 3000
	r := rng.New(202)
	for trial := 0; trial < 10; trial++ {
		res := adversary.RunExactBisectionBernoulli(n, 0.01, r)
		if len(res.Sample) == 0 {
			continue
		}
		d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
		want := 1 - float64(len(res.Sample))/float64(n)
		if math.Abs(d.Err-want) > 1e-9 {
			t.Fatalf("attack error %v, exact law predicts %v", d.Err, want)
		}
	}
}

// TestTheorem14EndToEnd checks the continuous game at the Theorem 1.4 size:
// every checkpoint prefix must be an eps-approximation in most trials.
func TestTheorem14EndToEnd(t *testing.T) {
	const n = 2000
	universe := int64(1) << 16
	p := core.Params{Eps: 0.3, Delta: 0.15, N: n}
	sys := setsystem.NewPrefixes(universe)
	k := core.ContinuousReservoirSize(p, sys.LogCardinality())
	cps := game.MustCheckpoints(k, n, p.Eps/4)

	fails := 0
	root := rng.New(303)
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		res := game.RunContinuous(sampler.NewReservoir[int64](k), adversary.NewStaticUniform(universe),
			sys, n, p.Eps, cps, root)
		if !res.OK {
			fails++
		}
		// The trajectory must include the final round.
		last := res.PrefixErrors[len(res.PrefixErrors)-1]
		if last.Round != n {
			t.Fatalf("final round missing from trajectory")
		}
	}
	if float64(fails)/trials > p.Delta+0.25 {
		t.Fatalf("continuous robustness failed %d/%d trials", fails, trials)
	}
}

// TestCrossoverShape reproduces the E11 crossover at small scale: under the
// unbounded attack, the sample lies among the k' ~ k(1+ln(n/k)) smallest
// elements, so a reservoir with k(1+ln(n/k)) << n/2 is broken while one
// with k(1+ln(n/k)) >> n/2 is not.
func TestCrossoverShape(t *testing.T) {
	const n = 4000
	// Solve k(1+ln(n/k)) = n/2 by scan.
	crossover := 1.0
	for k := 1.0; k < n; k++ {
		if k*(1+math.Log(n/k)) >= n/2 {
			crossover = k
			break
		}
	}
	small := int(crossover / 4)
	large := int(crossover * 4)
	if large > n {
		large = n
	}
	root := rng.New(404)
	meanErr := func(k int) float64 {
		sum := 0.0
		const trials = 8
		for i := 0; i < trials; i++ {
			res := adversary.RunExactBisectionReservoir(n, k, root)
			d := setsystem.NewPrefixes(int64(n)).MaxDiscrepancy(res.Stream, res.Sample)
			sum += d.Err
		}
		return sum / trials
	}
	if e := meanErr(small); e < 0.5 {
		t.Fatalf("below-crossover k=%d should be broken, mean err %v", small, e)
	}
	if e := meanErr(large); e > 0.5 {
		t.Fatalf("above-crossover k=%d should survive, mean err %v", large, e)
	}
}

// TestSampleSizeMonotonicity: robust sizes behave monotonically in their
// arguments across the sizing calculators.
func TestSampleSizeMonotonicity(t *testing.T) {
	base := core.Params{Eps: 0.1, Delta: 0.1, N: 1 << 30}
	logR := 20.0
	if core.ReservoirSize(core.Params{Eps: 0.05, Delta: 0.1, N: base.N}, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("smaller eps must need larger k")
	}
	if core.ReservoirSize(core.Params{Eps: 0.1, Delta: 0.01, N: base.N}, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("smaller delta must need larger k")
	}
	if core.ReservoirSize(base, 40) <= core.ReservoirSize(base, logR) {
		t.Fatal("larger ln|R| must need larger k")
	}
	if core.BernoulliRate(base, 40) <= core.BernoulliRate(base, logR) {
		t.Fatal("larger ln|R| must need larger p")
	}
	if core.ContinuousReservoirSize(base, logR) <= core.ReservoirSize(base, logR) {
		t.Fatal("continuous robustness must cost more")
	}
}

// TestGameAdversaryCannotCheatVerdict: whatever the adversary does, the
// verdict is computed on the true stream — check the stream recorded by the
// game matches what the verdict used via the exact law of densities.
func TestGameVerdictConsistency(t *testing.T) {
	universe := int64(1 << 14)
	res := game.Run(sampler.NewReservoir[int64](64), adversary.NewStaticUniform(universe),
		setsystem.NewIntervals(universe), 1500, 0.4, rng.New(505))
	// Recompute the witness density gap by hand.
	streamIn, sampleIn := 0, 0
	for _, x := range res.Stream {
		if x >= res.Discrepancy.Lo && x <= res.Discrepancy.Hi {
			streamIn++
		}
	}
	for _, x := range res.Sample {
		if x >= res.Discrepancy.Lo && x <= res.Discrepancy.Hi {
			sampleIn++
		}
	}
	got := math.Abs(float64(streamIn)/float64(len(res.Stream)) -
		float64(sampleIn)/float64(len(res.Sample)))
	if math.Abs(got-res.Discrepancy.Err) > 1e-9 {
		t.Fatalf("witness gap %v != reported %v", got, res.Discrepancy.Err)
	}
}

// TestBernoulliVsReservoirAgreement: at matched expected sample sizes, the
// two samplers achieve comparable approximation errors on the same
// workload.
func TestBernoulliVsReservoirAgreement(t *testing.T) {
	const n = 10000
	universe := int64(1 << 16)
	sys := setsystem.NewPrefixes(universe)
	root := rng.New(606)
	k := 1000
	p := float64(k) / n

	errOf := func(mk func() game.Sampler) float64 {
		sum := 0.0
		const trials = 10
		for i := 0; i < trials; i++ {
			res := game.Run(mk(), adversary.NewStaticUniform(universe), sys, n, 1, root)
			sum += res.Discrepancy.Err
		}
		return sum / trials
	}
	be := errOf(func() game.Sampler { return sampler.NewBernoulli[int64](p) })
	re := errOf(func() game.Sampler { return sampler.NewReservoir[int64](k) })
	if be > 3*re+0.02 || re > 3*be+0.02 {
		t.Fatalf("samplers disagree widely: bernoulli %v vs reservoir %v", be, re)
	}
}

// TestSizeCalculatorsConsistent checks the theorem sizings against each
// other at the set system's own complexity measures: the static bound
// (VC dimension) undercuts the adaptive one (ln|R|), and the quantile and
// heavy-hitter conveniences are the prefix/singleton reservoir sizes.
func TestSizeCalculatorsConsistent(t *testing.T) {
	p := core.Params{Eps: 0.1, Delta: 0.1, N: 100000}
	sys := setsystem.NewPrefixes(1 << 20)
	if core.StaticReservoirSize(p, sys.VCDim()) >= core.ReservoirSize(p, sys.LogCardinality()) {
		t.Fatal("static size should be smaller than adaptive size")
	}
	if core.QuantileSketchSize(p, 1<<20) != core.ReservoirSize(p, sys.LogCardinality()) {
		t.Fatal("quantile size mismatch")
	}
	if core.HeavyHitterSize(0.3, 0.1, 100000, 1<<20) <= 0 {
		t.Fatal("HH size")
	}
}

// TestStaticContinuousBelowAdaptiveContinuous compares the Theorem 1.4
// sizes at a moderate stream length: the VC-only static term (d = 1)
// stays below the adaptive ln|R| term for a 2^40 universe.
func TestStaticContinuousBelowAdaptiveContinuous(t *testing.T) {
	p := core.Params{Eps: 0.1, Delta: 0.1, N: 1 << 20}
	if core.StaticContinuousReservoirSize(p, 1) >= core.ContinuousReservoirSize(p, math.Log(1<<40)) {
		t.Fatal("static continuous size should undercut adaptive continuous size")
	}
}

// TestRunGameStaticUniform plays one benign game: a reservoir of 50
// against an i.i.d. uniform stream is well within eps = 0.5.
func TestRunGameStaticUniform(t *testing.T) {
	res := game.Run(sampler.NewReservoir[int64](50), adversary.NewStaticUniform(1<<16),
		setsystem.NewPrefixes(1<<16), 2000, 0.5, rng.New(1))
	if len(res.Stream) != 2000 {
		t.Fatal("stream length")
	}
	if !res.OK {
		t.Fatalf("benign game failed: %v", res)
	}
}

// TestRunContinuousGameCheckpoints plays a continuous game on the
// Theorem 1.4 geometric schedule and checks checkpoints were evaluated.
func TestRunContinuousGameCheckpoints(t *testing.T) {
	cps, err := game.Checkpoints(50, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res := game.RunContinuous(sampler.NewReservoir[int64](200), adversary.NewStaticUniform(1<<16),
		setsystem.NewPrefixes(1<<16), 1000, 0.5, cps, rng.New(2))
	if len(res.PrefixErrors) == 0 {
		t.Fatal("no checkpoints evaluated")
	}
}

// TestExactBisectionAttackInvariants runs the exact unbounded-universe
// attack against both samplers: the stream has the requested length, the
// Bernoulli sample obeys the Claim 5.2 invariant, and the reservoir
// returns k elements.
func TestExactBisectionAttackInvariants(t *testing.T) {
	r := rng.New(3)
	res := adversary.RunExactBisectionBernoulli(2000, 0.01, r)
	if len(res.Stream) != 2000 {
		t.Fatal("attack stream length")
	}
	if !res.SampleIsPrefixOfAdmitted {
		t.Fatal("attack invariant")
	}
	rres := adversary.RunExactBisectionReservoir(2000, 5, r)
	if len(rres.Sample) != 5 {
		t.Fatal("reservoir attack sample size")
	}
}

// TestBisectionAdversaryThroughGame drives the bounded-universe bisection
// adversary through the generic game loop against a Bernoulli sampler.
func TestBisectionAdversaryThroughGame(t *testing.T) {
	res := game.Run(sampler.NewBernoulli[int64](0.02), adversary.NewBisection(1<<62, 0.02),
		setsystem.NewPrefixes(1<<62), 300, 0.5, rng.New(4))
	if len(res.Stream) != 300 {
		t.Fatal("stream length")
	}
}

// TestEstimateRobustnessTrialCount checks the estimator plays exactly the
// requested number of games on the default worker pool.
func TestEstimateRobustnessTrialCount(t *testing.T) {
	p := core.Params{Eps: 0.3, Delta: 0.2, N: 500}
	est := core.EstimateRobustnessWorkers(
		func() game.Sampler { return sampler.NewReservoir[int64](60) },
		func() game.Adversary { return adversary.NewStaticUniform(1 << 16) },
		setsystem.NewPrefixes(1<<16), p, 5, 0, rng.New(5),
	)
	if est.Failure.Trials != 5 {
		t.Fatal("trial count")
	}
}

// TestAlgorithmLThroughGame plays Algorithm L (skip-based reservoir
// sampling) through the game: it keeps exactly k elements and passes a
// benign stream.
func TestAlgorithmLThroughGame(t *testing.T) {
	v := sampler.NewReservoirL[int64](25)
	if v.K != 25 {
		t.Fatal("capacity")
	}
	res := game.Run(v, adversary.NewStaticUniform(1<<16), setsystem.NewPrefixes(1<<16), 2000, 0.9, rng.New(9))
	if !res.OK || len(res.Sample) != 25 {
		t.Fatalf("Algorithm L through the game: %v", res)
	}
}

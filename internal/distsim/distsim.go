// Package distsim simulates the distributed-database illustration of
// Section 1.2: a stream of queries is load-balanced uniformly at random
// across K query-processing servers, so each server's substream is a
// Bernoulli(1/K) sample of the full stream. The question the paper raises —
// "is random sampling a risk in modern data processing systems?" — becomes:
// how unrepresentative can an adaptive client make one server's view of the
// workload?
//
// The simulation runs on the general sharded engine (internal/shard): a
// Cluster is a routing-only engine recording per-server substreams, and a
// Coordinator attaches per-server reservoirs and answers global queries
// through the engine's [CTW16]/[CMYZ12] primitives — MergeSamples for a
// uniform union sample, merged accumulators (GlobalVerdict) for exact union
// discrepancies without re-reading any substream.
//
// The package measures per-server representativeness as the Kolmogorov-
// Smirnov (prefix-system) distance between the server's substream and the
// full stream, under three workloads:
//
//   - uniform static queries (the benign baseline),
//   - a drifting distribution (environmental change without adversarial
//     intent), and
//   - the Figure-3 bisection attack aimed at one server, using that
//     server's routing outcomes as the admission channel. Over an
//     unbounded query universe the attack drives the target server's KS
//     distance toward 1 - 1/K; over a bounded (hash-discretized) universe
//     Theorem 1.2 with p = 1/K caps it — the experiment's punchline.
package distsim

import (
	"math"

	"robustsample/internal/adversary"
	"robustsample/internal/game"
	"robustsample/internal/rng"
	"robustsample/internal/sampler"
	"robustsample/internal/setsystem"
	"robustsample/internal/shard"
	"robustsample/internal/stats"
)

// Cluster is a set of K servers receiving a routed query stream: a
// routing-only (or, via NewCoordinator, sampler-carrying) view over a
// sharded engine with uniform routing and raw substream recording.
type Cluster struct {
	// K is the number of servers.
	K int

	eng *shard.Engine
}

// NewCluster returns an empty cluster of k servers whose routing draws from
// streams split off r. It panics unless k >= 2.
func NewCluster(k int, r *rng.RNG) *Cluster {
	if k < 2 {
		panic("distsim: need at least 2 servers")
	}
	return &Cluster{K: k, eng: shard.New(shard.Config{
		Shards:        k,
		Router:        shard.Uniform{},
		RecordStreams: true,
	}, r)}
}

// newCoordinatorCluster is NewCluster with per-server reservoirs attached.
func newCoordinatorCluster(k, localCapacity int, r *rng.RNG) *Cluster {
	if k < 2 {
		panic("distsim: need at least 2 servers")
	}
	return &Cluster{K: k, eng: shard.New(shard.Config{
		Shards: k,
		Router: shard.Uniform{},
		// Queries are arbitrary int64 keys; the universe only bounds
		// verdict witnesses.
		System: setsystem.NewPrefixes(math.MaxInt64),
		NewSampler: func(int) game.Sampler {
			return sampler.NewReservoir[int64](localCapacity)
		},
		RecordStreams: true,
	}, r)}
}

// Route assigns query x to a uniformly random server and returns its index.
func (c *Cluster) Route(x int64) int {
	s, _ := c.eng.Offer(x)
	return s
}

// RouteTo records query x at the given server (used when the routing
// decision is produced externally, e.g. by the attack runner).
func (c *Cluster) RouteTo(x int64, server int) {
	if server < 0 || server >= c.K {
		panic("distsim: server index out of range")
	}
	c.eng.RouteTo(x, server)
}

// Engine exposes the underlying sharded engine.
func (c *Cluster) Engine() *shard.Engine { return c.eng }

// Stream returns the full query stream.
func (c *Cluster) Stream() []int64 { return c.eng.Stream() }

// Server returns server i's substream.
func (c *Cluster) Server(i int) []int64 { return c.eng.Substream(i) }

// ServerKS returns the KS (prefix-system) distance between server i's
// substream and the full stream; 0 is perfectly representative.
func (c *Cluster) ServerKS(i int) float64 {
	return stats.KSDistanceInt64(c.eng.Stream(), c.eng.Substream(i))
}

// MaxKS returns the worst per-server KS distance.
func (c *Cluster) MaxKS() float64 {
	worst := 0.0
	for i := 0; i < c.K; i++ {
		if d := c.ServerKS(i); d > worst {
			worst = d
		}
	}
	return worst
}

// PredictedEps inverts the Theorem 1.2 Bernoulli bound for routing rate
// p = 1/K: the eps at which a server's substream is guaranteed (with
// probability 1-delta) to be an eps-approximation over a universe with
// log-cardinality logCard:
//
//	eps = sqrt( 10 (ln|R| + ln(4/delta)) * K / n ).
func PredictedEps(k, n int, logCard, delta float64) float64 {
	if k < 2 || n < 1 {
		panic("distsim: bad cluster parameters")
	}
	if delta <= 0 || delta >= 1 {
		panic("distsim: bad delta")
	}
	return math.Sqrt(10 * (logCard + math.Log(4/delta)) * float64(k) / float64(n))
}

// Outcome reports one simulated workload.
type Outcome struct {
	// Workload labels the scenario in tables.
	Workload string
	// N is the stream length, K the number of servers.
	N, K int
	// TargetKS is server 0's KS distance (the attacked server when the
	// workload is adversarial).
	TargetKS float64
	// MaxKS is the worst KS distance across servers.
	MaxKS float64
}

// RunUniform routes n i.i.d. uniform queries over [1, universe].
func RunUniform(k, n int, universe int64, r *rng.RNG) Outcome {
	c := NewCluster(k, r)
	for i := 0; i < n; i++ {
		c.Route(1 + r.Int63n(universe))
	}
	return Outcome{Workload: "uniform", N: n, K: k, TargetKS: c.ServerKS(0), MaxKS: c.MaxKS()}
}

// RunDrift routes n queries whose distribution drifts linearly across the
// universe over time (a non-adversarial environmental change): query i is
// uniform over a window centered at (i/n)*universe.
func RunDrift(k, n int, universe int64, r *rng.RNG) Outcome {
	c := NewCluster(k, r)
	window := universe / 10
	if window < 1 {
		window = 1
	}
	for i := 0; i < n; i++ {
		center := int64(float64(i) / float64(n) * float64(universe))
		lo := center - window/2
		if lo < 1 {
			lo = 1
		}
		hi := lo + window
		if hi > universe {
			hi = universe
		}
		c.Route(lo + r.Int63n(hi-lo+1))
	}
	return Outcome{Workload: "drift", N: n, K: k, TargetKS: c.ServerKS(0), MaxKS: c.MaxKS()}
}

// Coordinator models the distributed-sampling architecture of [CTW16] /
// [CMYZ12] (paper Section 1.3): every server maintains a local reservoir
// over its substream, and a coordinator merges the local samples into a
// uniform sample of the union stream to answer global queries without
// shipping raw substreams.
type Coordinator struct {
	c *Cluster
}

// NewCoordinator attaches per-server reservoirs of the given capacity to a
// fresh cluster of k servers seeded from r.
func NewCoordinator(k, localCapacity int, r *rng.RNG) *Coordinator {
	return &Coordinator{c: newCoordinatorCluster(k, localCapacity, r)}
}

// Route forwards a query to a uniformly random server, which folds it into
// its local reservoir.
func (co *Coordinator) Route(x int64) {
	co.c.eng.Offer(x)
}

// Cluster exposes the underlying cluster (full stream, substreams).
func (co *Coordinator) Cluster() *Cluster { return co.c }

// GlobalSample merges the per-server reservoirs into a uniform sample of
// size k of the union stream, by pairwise population-weighted merging
// (sampler.MergeSamples via the engine).
func (co *Coordinator) GlobalSample(k int, r *rng.RNG) []int64 {
	return co.c.eng.GlobalSample(k, r)
}

// GlobalVerdict returns the exact prefix-system discrepancy of the union of
// the per-server reservoirs against the union stream, computed by one
// k-way sweep over the per-server accumulators' sorted bins
// (shard.Engine.Verdict) — no substream is re-read.
func (co *Coordinator) GlobalVerdict() setsystem.Discrepancy {
	return co.c.eng.Verdict()
}

// RunAdaptiveAttack runs the Figure-3 bisection attack against server 0
// over an unbounded query universe: the adaptive client observes which
// server each query landed on (admission = "landed on server 0") and
// chooses the next query accordingly. Routing stays uniformly random; only
// the queries are adversarial.
func RunAdaptiveAttack(k, n int, r *rng.RNG) Outcome {
	if k < 2 {
		panic("distsim: need at least 2 servers")
	}
	routes := make([]int, n)
	res := adversary.RunExactBisectionFunc(n, func(round int) bool {
		s := r.Intn(k)
		routes[round-1] = s
		return s == 0
	})
	c := NewCluster(k, r)
	for i, x := range res.Stream {
		c.RouteTo(x, routes[i])
	}
	return Outcome{Workload: "adaptive-attack", N: n, K: k, TargetKS: c.ServerKS(0), MaxKS: c.MaxKS()}
}

// RunBoundedAdaptiveAttack runs the same adaptive client but over the
// bounded universe [1, universe] using the int64 bisection adversary; when
// the attack exhausts its precision (as Theorem 1.2 predicts it must for
// small universes), the client keeps submitting boundary values. This is
// the "hash-discretized queries" defense row of experiment E12.
func RunBoundedAdaptiveAttack(k, n int, universe int64, r *rng.RNG) Outcome {
	if k < 2 {
		panic("distsim: need at least 2 servers")
	}
	pp := math.Max(1/float64(k), math.Log(float64(n))/float64(n))
	if pp >= 1 {
		pp = 0.5
	}
	bi := adversary.NewBisection(universe, pp)
	bi.Reset()
	c := NewCluster(k, r)
	lastAdmitted := false
	var history []int64
	for i := 1; i <= n; i++ {
		obs := game.Observation{Round: i, N: n, History: history, LastAdmitted: lastAdmitted}
		x := bi.Next(obs, r)
		history = append(history, x)
		lastAdmitted = c.Route(x) == 0
	}
	return Outcome{Workload: "bounded-attack", N: n, K: k, TargetKS: c.ServerKS(0), MaxKS: c.MaxKS()}
}

// Package stats provides the seeded random number generation,
// distribution samplers and summary statistics used by the workload
// generators and the evaluation harness.
//
// Every experiment in the repository is deterministic: all randomness
// flows from an RNG constructed with an explicit seed.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source with the distribution samplers the
// Cirne-style workload models need. It wraps a PCG generator from
// math/rand/v2 so streams are reproducible across platforms.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with the two given words. The same
// seeds always produce the same stream.
func NewRNG(seed1, seed2 uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed1, seed2))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// LogNormal returns exp(N(mu, sigma^2)): the log-normal distribution the
// Cirne-Berman model uses for job runtimes and inter-arrival gaps.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Exponential returns a sample of an exponential distribution with the
// given mean. It panics if mean <= 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: non-positive exponential mean")
	}
	return g.r.ExpFloat64() * mean
}

// Weibull returns a sample of a Weibull distribution with the given shape
// k and scale lambda, a common fit for heavy-tailed inter-arrival bursts.
func (g *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: non-positive Weibull parameter")
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Pareto returns a bounded Pareto sample in [lo, hi] with tail index
// alpha, used for heavy-tailed job size distributions (Curie-like traces).
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic("stats: invalid bounded Pareto parameters")
	}
	u := g.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Categorical returns an index sampled according to the (unnormalised)
// non-negative weights. It panics if the weights sum to zero or less.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: categorical weights sum to zero")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Package dist provides deterministic random-number generation and the
// statistical distributions used to synthesize offline-downloading
// workloads: bounded Zipf and stretched-exponential popularity models,
// lognormal and log-uniform file-size components, Pareto tails, and
// empirical mixtures.
//
// All samplers are driven by an explicit *RNG so that every experiment in
// the repository is reproducible from a single seed. The package never
// touches global rand state.
package dist

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source. The zero value is not usable; use
// NewRNG. RNG is not safe for concurrent use; derive independent substreams
// with Split for concurrent consumers.
type RNG struct {
	// src is r's source. Draws that need nothing of math/rand's own —
	// Float64, and the Reseed — call it directly, without r's interface
	// call; the rest go through r, so both read one stream in draw order.
	src *lfSource
	r   *rand.Rand
	// seed records the construction seed for diagnostics and substream
	// derivation.
	seed uint64
}

// NewRNG returns a new deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	src := &lfSource{}
	src.Seed(int64(mix(seed)))
	return &RNG{src: src, r: rand.New(src), seed: seed}
}

// Seed returns the seed this generator was constructed with.
func (g *RNG) Seed() uint64 { return g.seed }

// Split derives an independent substream identified by label. Two RNGs
// split from the same parent with distinct labels produce uncorrelated
// sequences, and the derivation is deterministic: the same (seed, label)
// always yields the same stream regardless of how much the parent has been
// consumed.
func (g *RNG) Split(label string) *RNG {
	h := g.seed
	for _, b := range []byte(label) {
		h = (h ^ uint64(b)) * 0x100000001b3 // FNV-1a step
	}
	return NewRNG(mix(h))
}

// Split64 derives an independent substream identified by a numeric key —
// the allocation-light sibling of Split for hot loops that derive one
// stream per item (the replay engine derives one per request index).
// Like Split, the derivation depends only on the construction seed, never
// on how much the parent has been consumed, so (seed, n) always yields the
// same stream.
func (g *RNG) Split64(n uint64) *RNG {
	return NewRNG(mix(g.seed ^ mix(n+0x51ed2701)))
}

// Reseed reinitializes g in place so it produces exactly the stream
// NewRNG(seed) would, without allocating and in constant time (the
// source seeds lazily; see lfSource). It exists for streaming hot loops
// that derive one substream per item and draw only a few values from
// each: keep one scratch RNG per worker and Reseed it.
func (g *RNG) Reseed(seed uint64) {
	g.seed = seed
	// rand.Rand.Seed would only add a reset of Read's position, which
	// no RNG method reads.
	g.src.Seed(int64(mix(seed)))
}

// Split64Into is the allocation-free form of Split64: it reseeds dst in
// place to the substream Split64(n) would return. dst must not be shared
// with another goroutine.
func (g *RNG) Split64Into(dst *RNG, n uint64) {
	dst.Reseed(mix(g.seed ^ mix(n+0x51ed2701)))
}

// SplitBytesInto reseeds dst in place to exactly the substream
// Split(string(label)) would return, without materializing the label as a
// string or allocating the substream. It exists for hot loops that derive
// one stream per item under a composite key (the cloud backend derives one
// per file from a reused scratch buffer). dst must not be shared with
// another goroutine.
func (g *RNG) SplitBytesInto(dst *RNG, label []byte) {
	h := g.seed
	for _, b := range label {
		h = (h ^ uint64(b)) * 0x100000001b3 // FNV-1a step, as in Split
	}
	dst.Reseed(mix(h))
}

// mix is a SplitMix64 finalizer; it decorrelates adjacent seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1): rand.Rand.Float64's draw,
// resampling a result that rounds to 1, straight from the source.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential sample with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Choice returns an index in [0, len(weights)) sampled proportionally to
// the non-negative weights. It panics if weights is empty or sums to a
// non-positive value.
func (g *RNG) Choice(weights []float64) int {
	if len(weights) == 0 {
		panic("dist: Choice with empty weights")
	}
	total := WeightTotal(weights)
	if total <= 0 {
		panic("dist: Choice with non-positive total weight")
	}
	return g.ChoiceTotal(weights, total)
}

// WeightTotal is the total Choice draws against: the positive weights,
// added in order.
func WeightTotal(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// ChoiceTotal is Choice over a table drawn from many times, with its
// positive total, WeightTotal(weights), worked out once: the same draw and
// the same index, without adding up the table on every call.
func (g *RNG) ChoiceTotal(weights []float64, total float64) int {
	u := g.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// LogNormal returns a sample with the given log-mean mu and log-stddev
// sigma (parameters of the underlying normal).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.NormFloat64())
}

// LogUniform returns a sample whose logarithm is uniform over
// [log lo, log hi). Both bounds must be positive with lo < hi.
func (g *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("dist: LogUniform requires 0 < lo < hi")
	}
	return math.Exp(g.Uniform(math.Log(lo), math.Log(hi)))
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0. The support is [xm, +inf).
func (g *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("dist: Pareto requires positive scale and shape")
	}
	u := 1 - g.Float64() // in (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto returns a Pareto(xm, alpha) sample truncated to [xm, cap]
// via inverse-CDF sampling (not rejection), so it is O(1).
func (g *RNG) BoundedPareto(xm, alpha, capV float64) float64 {
	if capV <= xm {
		return xm
	}
	// Inverse CDF of the truncated Pareto.
	l := math.Pow(xm, alpha)
	h := math.Pow(capV, alpha)
	u := g.Float64()
	x := math.Pow(-(u*h-u*l-h)/(h*l), -1/alpha)
	if x < xm {
		x = xm
	}
	if x > capV {
		x = capV
	}
	return x
}

// Exponential returns an exponential sample with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("dist: Exponential requires positive mean")
	}
	return g.ExpFloat64() * mean
}

// Weibull returns a Weibull sample with scale lambda and shape k.
func (g *RNG) Weibull(lambda, k float64) float64 {
	if lambda <= 0 || k <= 0 {
		panic("dist: Weibull requires positive scale and shape")
	}
	u := 1 - g.Float64()
	return lambda * math.Pow(-math.Log(u), 1/k)
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, in {0, 1, 2, ...}. It panics unless 0 < p <= 1.
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("dist: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := 1 - g.Float64()
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Poisson returns a Poisson sample with the given mean, using Knuth's
// method for small means and a normal approximation above 64.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		x := math.Round(mean + math.Sqrt(mean)*g.NormFloat64())
		if x < 0 {
			return 0
		}
		return int(x)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

package dist

import "math/rand"

// lfSource is math/rand's additive lagged-Fibonacci generator, seeded
// lazily. The stdlib's Seed fills all 607 register words (~1,840 Lehmer
// steps) even when, as in the replay engine, a reseeded stream is drawn
// from four times; here Seed is O(1) and a slot is computed the first
// time a draw reaches it, from three products seed·p reduced modulo the
// Mersenne prime 2³¹−1 by a fold (mulMod) instead of a division. The
// stream is rand.NewSource(seed)'s, word for word
// (FuzzSourceMatchesMathRand).

const (
	lfLen  = 607 // register length (math/rand's rngLen)
	lfTap  = 273 // lag between the two summed slots (rngTap)
	lfCold = lfLen - lfTap
	lfMod  = 1<<31 - 1 // the seeding Lehmer generator's modulus
	lfMul  = 48271     // ... and its multiplier
)

var (
	// lfPow[i] holds lfMul^(21+3i+j) mod lfMod for j = 0, 1, 2: math/rand
	// discards 20 Lehmer steps and then spends three per slot, so slot
	// i's three seed-dependent words are seed·lfPow[i][j] mod lfMod.
	lfPow [lfLen][3]uint32
	// lfCooked is math/rand's rngCooked, the seed-independent word XORed
	// into every slot.
	lfCooked [lfLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lfMul % lfMod
	}
	for i := range lfPow {
		for j := range lfPow[i] {
			lfPow[i][j] = uint32(p)
			p = p * lfMul % lfMod
		}
	}
	// Recover rngCooked from the stdlib rather than vendoring it. Draw n
	// returns, and stores at feed, vec[feed]+vec[tap] with feed = 333-n
	// and tap = 606-n (mod 607), and from draw 273 on the tap slot holds
	// the output of draw n-273, so the first 607 outputs determine the
	// seeded register; XOR out the seed-dependent words and cooked is left.
	std := rand.NewSource(1).(rand.Source64)
	var out, vec [lfLen]int64
	for n := range out {
		out[n] = int64(std.Uint64())
	}
	for n := lfLen - 1; n >= lfTap; n-- {
		vec[(lfCold-1-n+lfLen)%lfLen] = out[n] - out[n-lfTap]
	}
	for n := 0; n < lfTap; n++ {
		vec[lfCold-1-n] = out[n] - vec[lfLen-1-n]
	}
	for i := range lfCooked {
		lfCooked[i] = vec[i] ^ seedWords(1, i)
	}
}

// seedWords returns the seed-dependent part of slot i: the three Lehmer
// outputs math/rand's Seed packs at bit offsets 40, 20 and 0.
func seedWords(seed uint64, i int) int64 {
	p := &lfPow[i]
	return int64(mulMod(seed, p[0]))<<40 ^
		int64(mulMod(seed, p[1]))<<20 ^
		int64(mulMod(seed, p[2]))
}

// mulMod returns seed·p mod 2³¹−1 for seed and p both below 2³¹−1. Since
// 2³¹ ≡ 1 under the modulus, the product's bits above 31 fold onto its
// low 31 bits: x&M + x>>31 ≡ x. The product is below M², so x>>31 is at
// most M−1 and the fold is below 2M: one conditional subtract finishes
// the reduction (TestMulModMatchesModulo).
func mulMod(seed uint64, p uint32) uint64 {
	x := seed * uint64(p)
	x = x&lfMod + x>>31
	if x >= lfMod {
		x -= lfMod
	}
	return x
}

// lfSource implements rand.Source64.
type lfSource struct {
	tap, feed int
	// cold counts draws since Seed, saturating at lfCold. It is the only
	// bookkeeping lazy seeding needs, because which draw first reaches
	// which slot is fixed by the algorithm: draw n < 273 is the first to
	// touch its tap slot (606-n), draw n < 334 the first to touch its
	// feed slot (333-n), and after 334 draws all 607 slots are live.
	cold int
	seed uint64 // reduced to [1, lfMod)
	vec  [lfLen]int64
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
// Like the stdlib it reduces seed mod 2³¹−1, so seeds congruent under
// that modulus share a stream (pinned by TestSeedSpaceIs31Bits).
func (s *lfSource) Seed(seed int64) {
	s.tap, s.feed, s.cold = 0, lfCold, 0
	seed %= lfMod
	if seed < 0 {
		seed += lfMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	if s.cold < lfCold {
		if s.cold < lfTap {
			s.vec[s.tap] = seedWords(s.seed, s.tap) ^ lfCooked[s.tap]
		}
		s.vec[s.feed] = seedWords(s.seed, s.feed) ^ lfCooked[s.feed]
		s.cold++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

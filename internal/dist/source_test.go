package dist

import (
	"math"
	"math/rand"
	"testing"
)

// stdSource is the reference: the stdlib generator lfSource must equal.
func stdSource(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// sameDraws draws n values from both sources, alternating Uint64 and
// Int63, and reports the first divergence.
func sameDraws(t *testing.T, got *lfSource, want rand.Source64, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("%s: Uint64 draw %d = %#x, math/rand gives %#x", what, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("%s: Int63 draw %d = %#x, math/rand gives %#x", what, i, g, w)
		}
	}
}

// edgeSeeds sit on every branch of Seed's reduction: zero (remapped),
// the modulus and its neighbours and negatives, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 42, 89482311,
	lfMod - 1, lfMod, lfMod + 1, 2 * lfMod, 2*lfMod + 1,
	-(lfMod - 1), -lfMod, -(lfMod + 1), -2 * lfMod,
	math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// drawDepths cross every boundary of the lazy seeding (the last first
// tap touch at 273, the last first feed touch at 334) and of the register
// (one and two full revolutions).
var drawDepths = []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		got, want := &lfSource{}, stdSource(seed)
		got.Seed(seed)
		sameDraws(t, got, want, 3*lfLen, "fresh")
	}
}

// TestSourceReseedMidStream: Seed must leave nothing of the previous
// stream behind, whichever slots that stream had made live.
func TestSourceReseedMidStream(t *testing.T) {
	got := &lfSource{}
	for _, depth := range drawDepths {
		for k, seed := range edgeSeeds {
			prev := edgeSeeds[(k+1)%len(edgeSeeds)]
			got.Seed(prev)
			for i := 0; i < depth; i++ {
				got.Uint64()
			}
			got.Seed(seed)
			want := stdSource(seed)
			sameDraws(t, got, want, depth+2, "after reseed")
			// And the stdlib's own Seed-in-place agrees too.
			want.Seed(prev)
			got.Seed(prev)
			sameDraws(t, got, want, lfCold+1, "after second reseed")
		}
	}
}

// stdTwin is the stdlib generator NewRNG(g.Seed()) stood on before
// lfSource replaced its source.
func stdTwin(g *RNG) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(g.Seed()))))
}

// TestRNGMethodsMatchStdlibTwin runs every RNG method that forwards to
// rand.Rand against a stdlib-seeded twin, on streams reached by each of
// the in-place derivations the hot paths use.
func TestRNGMethodsMatchStdlibTwin(t *testing.T) {
	root := NewRNG(7)
	derive := map[string]func(dst *RNG, k int){
		"Reseed":         func(dst *RNG, k int) { dst.Reseed(uint64(k) * 0x9e3779b97f4a7c15) },
		"Split64Into":    func(dst *RNG, k int) { root.Split64Into(dst, uint64(k)) },
		"SplitBytesInto": func(dst *RNG, k int) { root.SplitBytesInto(dst, []byte{'f', byte(k), byte(k >> 8)}) },
	}
	for name, fn := range derive {
		g := NewRNG(0)
		for k := 0; k < 40; k++ {
			fn(g, k)
			r := stdTwin(g)
			// Enough rounds to run past both lazy thresholds and a full
			// register revolution inside one derived stream.
			for round := 0; round < 30; round++ {
				if a, b := g.Float64(), r.Float64(); a != b {
					t.Fatalf("%s k=%d: Float64 %v vs %v", name, k, a, b)
				}
				if a, b := g.Intn(1000003), r.Intn(1000003); a != b {
					t.Fatalf("%s k=%d: Intn %v vs %v", name, k, a, b)
				}
				if a, b := g.Int63n(1<<40+7), r.Int63n(1<<40+7); a != b {
					t.Fatalf("%s k=%d: Int63n %v vs %v", name, k, a, b)
				}
				if a, b := g.NormFloat64(), r.NormFloat64(); a != b {
					t.Fatalf("%s k=%d: NormFloat64 %v vs %v", name, k, a, b)
				}
				if a, b := g.ExpFloat64(), r.ExpFloat64(); a != b {
					t.Fatalf("%s k=%d: ExpFloat64 %v vs %v", name, k, a, b)
				}
				pa, pb := g.Perm(9), r.Perm(9)
				sa, sb := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
				g.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
				r.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatalf("%s k=%d: Perm %v vs %v", name, k, pa, pb)
					}
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("%s k=%d: Shuffle %v vs %v", name, k, sa, sb)
					}
				}
			}
		}
	}
}

// TestSeedSpaceIs31Bits pins a wart inherited from math/rand, on purpose:
// Seed reduces its argument mod 2³¹−1, so the 64-bit substream keys
// Split64Into derives collapse onto 2³¹−2 streams. Widening the seed
// space changes every replay digest and is therefore its own change; if
// this test fails, that change happened and the goldens need a new epoch.
func TestSeedSpaceIs31Bits(t *testing.T) {
	const a = int64(0x1234567890abcdef)
	b := a%lfMod + 5*lfMod // congruent to a, far from it
	x, y := &lfSource{}, &lfSource{}
	x.Seed(a)
	y.Seed(b)
	for i := 0; i < 2*lfLen; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatalf("seeds %d and %d (congruent mod 2^31-1) diverged at draw %d", a, b, i)
		}
	}
	if stdSource(a).Uint64() != stdSource(b).Uint64() {
		t.Fatal("math/rand no longer reduces seeds mod 2^31-1")
	}
}

// FuzzSourceMatchesMathRand: for any seed, any depth, and any reseed at
// that depth, lfSource and math/rand yield the same words.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		for _, d := range []uint16{0, lfTap, lfCold, lfLen, 2 * lfLen} {
			f.Add(seed, d, ^seed, d+1)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, reseed int64, m uint16) {
		got, want := &lfSource{}, stdSource(seed)
		got.Seed(seed)
		sameDraws(t, got, want, int(n%2048), "fresh")
		got.Seed(reseed)
		want.Seed(reseed)
		sameDraws(t, got, want, int(m%2048), "after reseed")
	})
}

// TestMulModMatchesModulo: seedWords' fold reduces every product it
// meets — a seed in [1, 2³¹−1) times any lfPow word — exactly as the
// generic modulus does, at the edge seeds and at 10,000 random ones.
func TestMulModMatchesModulo(t *testing.T) {
	seeds := []uint64{1, 2, lfMod - 2, lfMod - 1, 89482311}
	r := rand.New(rand.NewSource(53))
	for len(seeds) < 10_005 {
		seeds = append(seeds, 1+uint64(r.Int63n(lfMod-1)))
	}
	for _, seed := range seeds {
		for i := range lfPow {
			for _, p := range lfPow[i] {
				if got, want := mulMod(seed, p), seed*uint64(p)%lfMod; got != want {
					t.Fatalf("seed %d, word %d: fold %d, modulus %d", seed, p, got, want)
				}
			}
		}
	}
}

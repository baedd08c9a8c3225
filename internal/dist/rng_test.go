package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 500; i++ {
		a.Float64() // consume parent a only
	}
	sa := a.Split("child")
	sb := b.Split("child")
	for i := 0; i < 100; i++ {
		if sa.Float64() != sb.Float64() {
			t.Fatalf("Split stream depends on parent consumption (draw %d)", i)
		}
	}
}

func TestSplitLabelsDecorrelate(t *testing.T) {
	g := NewRNG(7)
	a := g.Split("alpha")
	b := g.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct labels produced %d/100 identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) out of range: %g", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := NewRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %g, want ~0.3", got)
	}
}

func TestChoiceProportions(t *testing.T) {
	g := NewRNG(5)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Choice(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Choice index %d frequency = %g, want ~%g", i, got, want)
		}
	}
}

func TestChoiceSkipsNonPositive(t *testing.T) {
	g := NewRNG(5)
	w := []float64{0, -3, 5, 0}
	for i := 0; i < 1000; i++ {
		if idx := g.Choice(w); idx != 2 {
			t.Fatalf("Choice picked zero-weight index %d", idx)
		}
	}
}

func TestChoicePanics(t *testing.T) {
	g := NewRNG(5)
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%v) did not panic", w)
				}
			}()
			g.Choice(w)
		}()
	}
}

func TestLogNormalMoments(t *testing.T) {
	g := NewRNG(9)
	mu, sigma := 2.0, 0.5
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += g.LogNormal(mu, sigma)
	}
	got := sum / float64(n)
	want := math.Exp(mu + sigma*sigma/2)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("LogNormal mean = %g, want ~%g", got, want)
	}
}

func TestLogUniformRange(t *testing.T) {
	g := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := g.LogUniform(4, 8e6)
		if v < 4 || v >= 8e6 {
			t.Fatalf("LogUniform out of range: %g", v)
		}
	}
}

func TestParetoSupport(t *testing.T) {
	g := NewRNG(17)
	for i := 0; i < 10000; i++ {
		if v := g.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto below scale: %g", v)
		}
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	g := NewRNG(17)
	for i := 0; i < 10000; i++ {
		v := g.BoundedPareto(85, 1.2, 5000)
		if v < 85 || v > 5000 {
			t.Fatalf("BoundedPareto out of [85,5000]: %g", v)
		}
	}
}

func TestBoundedParetoDegenerateCap(t *testing.T) {
	g := NewRNG(17)
	if v := g.BoundedPareto(10, 1, 10); v != 10 {
		t.Fatalf("cap==xm should return xm, got %g", v)
	}
	if v := g.BoundedPareto(10, 1, 5); v != 10 {
		t.Fatalf("cap<xm should return xm, got %g", v)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(21)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += g.Exponential(7)
	}
	got := sum / float64(n)
	if math.Abs(got-7)/7 > 0.02 {
		t.Fatalf("Exponential(7) mean = %g", got)
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(23)
	p := 0.25
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(p))
	}
	got := sum / float64(n)
	want := (1 - p) / p
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("Geometric(%g) mean = %g, want ~%g", p, got, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	g := NewRNG(23)
	for i := 0; i < 100; i++ {
		if g.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestPoissonSmallMean(t *testing.T) {
	g := NewRNG(29)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(3.5))
	}
	got := sum / float64(n)
	if math.Abs(got-3.5)/3.5 > 0.03 {
		t.Fatalf("Poisson(3.5) mean = %g", got)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	g := NewRNG(29)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(200))
	}
	got := sum / float64(n)
	if math.Abs(got-200)/200 > 0.02 {
		t.Fatalf("Poisson(200) mean = %g", got)
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	g := NewRNG(29)
	if g.Poisson(0) != 0 || g.Poisson(-5) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	g := NewRNG(31)
	var sum float64
	n := 200000
	for i := 0; i < n; i++ {
		sum += g.Weibull(4, 1)
	}
	got := sum / float64(n)
	if math.Abs(got-4)/4 > 0.02 {
		t.Fatalf("Weibull(4,1) mean = %g, want ~4", got)
	}
}

// Property: mix is a bijection-ish finalizer — distinct inputs map to
// distinct outputs for all sampled cases.
func TestMixInjectiveProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return mix(a) != mix(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uniform(lo, hi) stays within its half-open interval for
// arbitrary well-ordered bounds.
func TestUniformBoundsProperty(t *testing.T) {
	g := NewRNG(37)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo <= 0 || hi-lo > 1e100 {
			return true
		}
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi || v == lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Split64 must be deterministic on (seed, key), independent of parent
// consumption, and decorrelated across adjacent keys — the guarantees the
// sharded replay engine's per-request substreams rely on.
func TestSplit64(t *testing.T) {
	a := NewRNG(99).Split64(7)
	parent := NewRNG(99)
	parent.Float64() // consume the parent; derivation must not care
	b := parent.Split64(7)
	for i := 0; i < 64; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split64 depends on parent consumption")
		}
	}
	// Distinct keys must give distinct streams, including adjacent keys.
	x := NewRNG(99).Split64(0)
	y := NewRNG(99).Split64(1)
	same := 0
	for i := 0; i < 64; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent Split64 streams collide on %d/64 draws", same)
	}
	// And Split64 must not alias Split of the same numeric label.
	p := NewRNG(99).Split64(42)
	q := NewRNG(99).Split("42")
	if p.Float64() == q.Float64() && p.Float64() == q.Float64() {
		t.Fatal("Split64 aliases Split")
	}
}

func TestReseedMatchesNewRNG(t *testing.T) {
	g := NewRNG(7)
	g.Float64() // consume some state first
	g.NormFloat64()
	g.Reseed(1234)
	fresh := NewRNG(1234)
	if g.Seed() != fresh.Seed() {
		t.Fatalf("Reseed recorded seed %d, want %d", g.Seed(), fresh.Seed())
	}
	for i := 0; i < 16; i++ {
		if g.Float64() != fresh.Float64() {
			t.Fatalf("draw %d diverged from NewRNG(1234)", i)
		}
	}
	// Reseeding must also reset the normal/exponential paths.
	g.Reseed(1234)
	fresh = NewRNG(1234)
	if g.NormFloat64() != fresh.NormFloat64() || g.ExpFloat64() != fresh.ExpFloat64() {
		t.Fatal("Reseed did not reset non-uniform draw state")
	}
}

func TestSplit64IntoMatchesSplit64(t *testing.T) {
	root := NewRNG(99)
	scratch := NewRNG(0)
	for _, n := range []uint64{0, 1, 7, 1 << 40} {
		want := root.Split64(n)
		root.Split64Into(scratch, n)
		if scratch.Seed() != want.Seed() {
			t.Fatalf("n=%d: Split64Into seed %d, want %d", n, scratch.Seed(), want.Seed())
		}
		for i := 0; i < 8; i++ {
			if scratch.Float64() != want.Float64() {
				t.Fatalf("n=%d: draw %d diverged from Split64", n, i)
			}
		}
	}
}

func TestSplit64IntoAllocFree(t *testing.T) {
	root := NewRNG(3)
	scratch := NewRNG(0)
	allocs := testing.AllocsPerRun(100, func() {
		root.Split64Into(scratch, 42)
		scratch.Float64()
	})
	if allocs != 0 {
		t.Fatalf("Split64Into allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSplitBytesIntoMatchesSplit(t *testing.T) {
	root := NewRNG(424242)
	scratch := NewRNG(0)
	for _, label := range []string{"", "pre:", "pre:00112233445566778899aabbccddeeff", "warm"} {
		want := root.Split(label)
		root.SplitBytesInto(scratch, []byte(label))
		if scratch.Seed() != want.Seed() {
			t.Fatalf("label %q: SplitBytesInto seed %d, want %d", label, scratch.Seed(), want.Seed())
		}
		for i := 0; i < 8; i++ {
			if scratch.Float64() != want.Float64() {
				t.Fatalf("label %q: draw %d diverged from Split", label, i)
			}
		}
	}
}

func TestSplitBytesIntoAllocFree(t *testing.T) {
	root := NewRNG(3)
	scratch := NewRNG(0)
	label := []byte("pre:00112233445566778899aabbccddeeff")
	allocs := testing.AllocsPerRun(100, func() {
		root.SplitBytesInto(scratch, label)
		scratch.Float64()
	})
	if allocs != 0 {
		t.Fatalf("SplitBytesInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestChoiceTotalMatchesChoice: with the total summed once, the draw is
// Choice's, index for index, on one RNG stream, for random tables holding
// zero and negative weights.
func TestChoiceTotalMatchesChoice(t *testing.T) {
	tables, a, b := NewRNG(3), NewRNG(8), NewRNG(8)
	for i := 0; i < 5000; i++ {
		w := make([]float64, 1+tables.Intn(30))
		for k := range w {
			switch tables.Intn(4) {
			case 0:
				w[k] = 0
			case 1:
				w[k] = -tables.Float64()
			default:
				w[k] = tables.Float64() * math.Pow(10, float64(tables.Intn(7)-3))
			}
		}
		total := WeightTotal(w)
		if total <= 0 {
			continue
		}
		if got, want := b.ChoiceTotal(w, total), a.Choice(w); got != want {
			t.Fatalf("table %d %v: ChoiceTotal = %d, Choice = %d", i, w, got, want)
		}
	}
}

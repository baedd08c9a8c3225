package dist

import "testing"

// BenchmarkRNGDraws times the two ways the repo draws. reseed is the
// replay engine's: each item reseeds one scratch RNG to its own substream
// (Split64Into) and draws a Poisson(20) and six Float64s, so a cold
// register slot is computed on nearly every draw; ns/op is per item.
// stream is one long stream's Float64s, every slot warm; ns/op is per
// draw.
func BenchmarkRNGDraws(b *testing.B) {
	b.Run("reseed", func(b *testing.B) {
		root, g := NewRNG(7), NewRNG(0)
		var sink float64
		for i := 0; i < b.N; i++ {
			root.Split64Into(g, uint64(i))
			sink += float64(g.Poisson(20))
			for k := 0; k < 6; k++ {
				sink += g.Float64()
			}
		}
		if sink < 0 {
			b.Fatal(sink)
		}
	})
	b.Run("stream", func(b *testing.B) {
		g := NewRNG(7)
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += g.Float64()
		}
		if sink < 0 {
			b.Fatal(sink)
		}
	})
}

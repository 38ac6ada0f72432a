package classify

import (
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/worldgen"
)

var benchSink *Result

// BenchmarkClassifyLayer prices one cold /api/classes render's worth of
// classification — usage curves, features, affinity propagation, labels —
// over a warmed scoring index, on 8 countries of 2,000 sites. The
// "ap-rounds" metric says how long the kernel ran, since a layer that
// converges early and one that hits the cap are different benchmarks.
func BenchmarkClassifyLayer(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:            99,
		SitesPerCountry: 2000,
		Countries:       []string{"AU", "BR", "DE", "IN", "JP", "TH", "US", "ZA"},
	})
	if err != nil {
		b.Fatal(err)
	}
	corpus := w.Truth
	for _, layer := range []countries.Layer{countries.Hosting, countries.DNS} {
		b.Run(layer.String(), func(b *testing.B) {
			corpus.ScoreSet().Scores(layer) // build the index outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Layer(corpus, layer, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
			b.ReportMetric(float64(benchSink.Iterations), "ap-rounds")
		})
	}
}

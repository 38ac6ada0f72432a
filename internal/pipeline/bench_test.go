package pipeline

import (
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

// BenchmarkEnrichCountry enriches every country of a seeded 8 × 2,000-site
// world once per op: three prefix lookups per IP, the CA-owner join and the
// row fill. Fresh allocates each country's rows as EnrichCountry does;
// Reused enriches into one list, as each MeasureWorldToStore worker does.
func BenchmarkEnrichCountry(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               11,
		SitesPerCountry:    2000,
		Countries:          []string{"AU", "BR", "DE", "IN", "JP", "TH", "US", "ZA"},
		DomesticPerCountry: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := FromWorld(w)
	epoch := w.Config.Epoch
	sites := 0
	for _, cc := range w.Config.Countries {
		sites += len(w.Raw[cc])
	}
	run := func(b *testing.B, enrich func(cc string)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cc := range w.Config.Countries {
				enrich(cc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sites), "ns/site")
	}
	b.Run("Fresh", func(b *testing.B) {
		run(b, func(cc string) { p.EnrichCountry(cc, epoch, w.Raw[cc]) })
	})
	b.Run("Reused", func(b *testing.B) {
		list := &dataset.CountryList{}
		run(b, func(cc string) { p.enrichInto(list, cc, epoch, w.Raw[cc]) })
	})
}

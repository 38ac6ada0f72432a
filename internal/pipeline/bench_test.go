package pipeline

import (
	"runtime"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/obs"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

// benchWorld is the seeded 8 × 2,000-site world the ingest benchmarks run
// on, and its site count.
func benchWorld(tb testing.TB) (*worldgen.World, int) {
	tb.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               11,
		SitesPerCountry:    2000,
		Countries:          []string{"AU", "BR", "DE", "IN", "JP", "TH", "US", "ZA"},
		DomesticPerCountry: 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sites := 0
	for _, cc := range w.Config.Countries {
		sites += len(w.Raw[cc])
	}
	return w, sites
}

// BenchmarkEnrichCountry enriches every country of benchWorld once per op
// into Website rows: three prefix lookups per IP, the CA-owner join and
// the row fill. Fresh allocates each country's rows as EnrichCountry does;
// Reused enriches into one list, so what is left is the two IP strings per
// site a Website holds. (MeasureWorldToStore enriches into IDs instead;
// BenchmarkMeasureWorldToStore prices it.)
func BenchmarkEnrichCountry(b *testing.B) {
	w, sites := benchWorld(b)
	p := FromWorld(w)
	epoch := w.Config.Epoch
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

// BenchmarkMeasureWorldToStore is one store ingest of benchWorld per op:
// enrichment into symbol IDs, shard encoding and the fsynced commit, on
// the default worker count. allocs/site is what the ingest allocates per
// site; TestMeasureWorldToStoreAllocsPerSite gates it.
func BenchmarkMeasureWorldToStore(b *testing.B) {
	w, sites := benchWorld(b)
	p := FromWorld(w)
	p.Obs = obs.NewRegistry()
	dirs := make([]string, b.N)
	for i := range dirs {
		dirs[i] = b.TempDir()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	for i := 0; i < b.N; i++ {
		if err := measureInto(dirs[i], p, w); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&mem)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sites), "ns/site")
	b.ReportMetric(float64(mem.Mallocs-mallocs)/float64(b.N*sites), "allocs/site")
}

// measureInto measures w into a fresh store at dir and commits it.
func measureInto(dir string, p *Pipeline, w *worldgen.World) error {
	sw, err := corpusstore.Create(dir, w.Config.Epoch, &corpusstore.Options{Obs: p.Obs})
	if err != nil {
		return err
	}
	if err := p.MeasureWorldToStore(w, sw); err != nil {
		return err
	}
	return sw.Close()
}

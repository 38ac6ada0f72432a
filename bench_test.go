// Package webdep's root benchmark harness: one benchmark per table and
// figure in the paper's evaluation (see DESIGN.md's per-experiment index),
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Each benchmark measures the cost of regenerating its table/figure from a
// shared measured corpus (world generation and measurement are amortized
// through sync.Once and benchmarked separately).
package webdep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/divergence"
	"github.com/webdep/webdep/internal/emd"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/vantage"
	"github.com/webdep/webdep/internal/worldgen"
)

// benchCountries is a 40-country cross-section covering every subregion the
// experiments touch; benches run at 1000 sites per country for a
// representative but CI-friendly corpus.
var benchCountries = []string{
	"TH", "ID", "MM", "LA", "IQ", "SY", "PK", "SA", "EG", "DZ",
	"US", "CA", "MX", "BR", "AR", "CL", "PE", "TT", "PR", "CU",
	"CZ", "SK", "RU", "BG", "LT", "PL", "HU", "DE", "FR", "GB",
	"IR", "JP", "KR", "TW", "IN", "NG", "ZA", "KE", "TM", "KG",
}

var (
	benchOnce    sync.Once
	benchWorld   *worldgen.World
	benchCorpus  *dataset.Corpus
	benchCorpus2 *dataset.Corpus
	benchClass   *classify.Result
	benchErr     error
)

func setup(b *testing.B) (*worldgen.World, *dataset.Corpus) {
	b.Helper()
	benchOnce.Do(func() {
		w, err := worldgen.Build(worldgen.Config{
			Seed: 1, SitesPerCountry: 1000, Countries: benchCountries, DomesticPerCountry: 30,
		})
		if err != nil {
			benchErr = err
			return
		}
		benchWorld = w
		benchCorpus, benchErr = pipeline.FromWorld(w).MeasureWorld(w)
		if benchErr != nil {
			return
		}
		next, err := worldgen.BuildNextEpoch(w, "2025-05")
		if err != nil {
			benchErr = err
			return
		}
		benchCorpus2, benchErr = pipeline.FromWorld(w).MeasureWorld(next)
		if benchErr != nil {
			return
		}
		benchClass, benchErr = classify.Layer(benchCorpus, countries.Hosting, classify.DefaultOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld, benchCorpus
}

// BenchmarkWorldGeneration measures building a calibrated 10-country world
// from scratch (the substrate every experiment stands on).
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := worldgen.Build(worldgen.Config{
			Seed: int64(i), SitesPerCountry: 1000,
			Countries:          benchCountries[:10],
			DomesticPerCountry: 30,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEnrichment measures the fast-mode measurement pipeline:
// geolocation, AS-org, anycast, and CA-owner joins for 1000 sites.
func BenchmarkPipelineEnrichment(b *testing.B) {
	w, _ := setup(b)
	p := pipeline.FromWorld(w)
	raw := w.Raw["US"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EnrichCountry("US", "bench", raw)
	}
}

// BenchmarkFig1TopNShortcoming regenerates Figure 1: provider rank curves
// and the top-5 vs 𝒮 comparison.
func BenchmarkFig1TopNShortcoming(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cc := range []string{"TH", "IR"} {
			d := corpus.Get(cc).Distribution(countries.Hosting)
			_ = d.RankCurve()
			_ = d.TopNShare(5)
			_ = d.Score()
		}
	}
}

// BenchmarkFig2WorkedExample regenerates Figure 2: the worked EMD example,
// solved exactly through the transportation solver.
func BenchmarkFig2WorkedExample(b *testing.B) {
	countryA := []int{7, 5, 4, 3, 2, 1, 1, 1, 1}
	countryB := []int{10, 6, 3, 2, 1, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		if _, err := emd.ReferenceEMD(countryA); err != nil {
			b.Fatal(err)
		}
		if _, err := emd.ReferenceEMD(countryB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ExampleScores regenerates Figure 3: centralization scores of
// synthetic reference distributions.
func BenchmarkFig3ExampleScores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, theta := range []float64{3.0, 1.8, 1.2, 0.9, 0.6, 0.3, 0.05} {
			d := core.NewDistribution()
			for j := 0; j < 2000; j++ {
				d.Add(fmt.Sprintf("p%d", j), math.Max(1, math.Pow(float64(j+1), -theta)*10000))
			}
			_ = d.Score()
		}
	}
}

// BenchmarkFig4UsageEndemicity regenerates Figure 4: usage curves plus the
// usage/endemicity metrics for every hosting provider.
func BenchmarkFig4UsageEndemicity(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves := corpus.ScoreSet().UsageCurves(countries.Hosting)
		for _, curve := range curves {
			_ = curve.Usage()
			_ = curve.EndemicityRatio()
		}
	}
}

// BenchmarkTable5HostingCentralization regenerates Table 5 / Figure 5.
func BenchmarkTable5HostingCentralization(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.SortedScores(corpus, countries.Hosting)
	}
}

// BenchmarkTables5to8AllLayers regenerates all four per-country score
// tables (Tables 5–8, Figures 5 and 17–19).
func BenchmarkTables5to8AllLayers(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = analysis.SortedScores(corpus, layer)
		}
	}
}

// BenchmarkTable1ProviderClasses regenerates Table 1 / Figure 6: usage and
// endemicity features, min-max scaling, affinity propagation, labeling.
func BenchmarkTable1ProviderClasses(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Layer(corpus, countries.Hosting, classify.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DNSClasses regenerates Table 2.
func BenchmarkTable2DNSClasses(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Layer(corpus, countries.DNS, classify.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CAClasses regenerates Table 3.
func BenchmarkTable3CAClasses(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Layer(corpus, countries.CA, classify.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7HostingBreakdown regenerates Figure 7: per-country class
// share breakdowns (Figures 14/15 are the same computation on other
// layers).
func BenchmarkFig7HostingBreakdown(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for cc := range corpus.Lists {
			_ = classify.CountryBreakdownIndexed(corpus, cc, countries.Hosting, benchClass)
		}
	}
}

// BenchmarkFig8RegionalDependence regenerates Figure 8's three dependence
// matrices.
func BenchmarkFig8RegionalDependence(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.ContinentDependence(corpus, analysis.ByProviderHQ)
		_ = analysis.ContinentDependence(corpus, analysis.ByIPGeolocation)
		_ = analysis.ContinentDependence(corpus, analysis.ByNSGeolocation)
	}
}

// BenchmarkFig9LayerSubregion regenerates Figure 9: centralization across
// layers × subregions.
func BenchmarkFig9LayerSubregion(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = analysis.BySubregion(analysis.SortedScores(corpus, layer))
		}
	}
}

// BenchmarkFig10InsularitySubregion regenerates Figure 10.
func BenchmarkFig10InsularitySubregion(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = analysis.BySubregion(analysis.SortedInsularity(corpus, layer))
		}
	}
}

// BenchmarkFig11InsularityCDF regenerates Figure 11.
func BenchmarkFig11InsularityCDF(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = analysis.InsularityCDF(corpus, layer)
		}
	}
}

// BenchmarkFig12ScoreHistograms regenerates Figure 12's four histograms
// with the global-toplist markers.
func BenchmarkFig12ScoreHistograms(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_, _ = analysis.ScoreHistogram(corpus, layer, 13)
		}
	}
}

// BenchmarkFig13InsularityByCountry regenerates Figures 13 and 20–22.
func BenchmarkFig13InsularityByCountry(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = analysis.SortedInsularity(corpus, layer)
		}
	}
}

// BenchmarkCorrelations regenerates the Section 5 correlation battery (X2).
func BenchmarkCorrelations(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ClassCorrelations(corpus, benchClass); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudies regenerates the Section 5.3.3 cross-border table
// (X7).
func BenchmarkCaseStudies(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = analysis.CaseStudies(corpus)
	}
}

// BenchmarkLongitudinal regenerates the Section 5.4 two-epoch comparison
// (X3).
func BenchmarkLongitudinal(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Longitudinal(corpus, benchCorpus2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVantageValidation regenerates the Section 3.4 probe validation
// (X1).
func BenchmarkVantageValidation(b *testing.B) {
	w, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vantage.Validate(w, corpus, vantage.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDivergenceComparison regenerates the Section 3.1 f-divergence
// saturation argument (X5).
func BenchmarkDivergenceComparison(b *testing.B) {
	mild := []float64{3, 3, 2, 2}
	wild := []float64{9, 1}
	reference := make([]float64, 10)
	for i := range reference {
		reference[i] = 1
	}
	for i := 0; i < b.N; i++ {
		p, q := divergence.DisjointSupport(mild, reference)
		if _, err := divergence.JensenShannon(p, q); err != nil {
			b.Fatal(err)
		}
		if _, err := divergence.Hellinger(p, q); err != nil {
			b.Fatal(err)
		}
		if _, err := divergence.TotalVariation(p, q); err != nil {
			b.Fatal(err)
		}
		_ = emd.Centralization(mild)
		_ = emd.Centralization(wild)
	}
}

// BenchmarkTLDAnalysis regenerates Appendix B's TLD study (X4).
func BenchmarkTLDAnalysis(b *testing.B) {
	_, corpus := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.StudyTLD(corpus); err != nil {
			b.Fatal(err)
		}
		_ = analysis.TLDBreakdowns(corpus)
	}
}

// BenchmarkLiveCrawl measures the end-to-end live path: real DNS over
// UDP/TCP plus real TLS handshakes against a served world, per 30-site
// country.
func BenchmarkLiveCrawl(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed: 7, SitesPerCountry: 30, Countries: []string{"TH"}, DomesticPerCountry: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	live := &pipeline.Live{
		Pipeline: pipeline.FromWorld(w),
		DNS:      resolver.NewClient(ep.DNSAddr),
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  ep.TLSAddr,
		Workers:  8,
	}
	domains := w.Truth.Get("TH").Domains()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live.CrawlCountry(context.Background(), "TH", "bench", domains); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureWorldParallel measures corpus-wide enrichment of the full
// 150-country world through the parallel execution layer, with the
// one-worker pool as the sequential baseline the speedup is judged
// against. The measured corpus is byte-identical across sub-benchmarks
// (see TestMeasureWorldDeterministicAcrossWorkers), so the only variable
// is wall-clock.
func BenchmarkMeasureWorldParallel(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed: 1, SitesPerCountry: 300, DomesticPerCountry: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(w.Config.Countries); n != 150 {
		b.Fatalf("world has %d countries, want the full 150", n)
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p := pipeline.FromWorld(w)
			p.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MeasureWorld(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorpusScoresParallel measures the cold scoring-index build over
// the shared 40-country corpus at one worker versus one per CPU. The index
// is dropped before every iteration — without that, every iteration after
// the first would read the cache and the worker sweep would measure map
// cloning (see BenchmarkExperimentsSuite for the cached steady state).
func BenchmarkCorpusScoresParallel(b *testing.B) {
	_, corpus := setup(b)
	defer func() { corpus.Workers = 0; corpus.InvalidateScoringIndex() }()
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			corpus.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				corpus.InvalidateScoringIndex()
				for _, layer := range countries.Layers {
					_ = corpus.ScoreSet().Scores(layer)
				}
			}
		})
	}
}

// BenchmarkExperimentsSuite is the end-to-end number the scoring index is
// judged on: one iteration re-runs the full analysis battery behind the
// paper's tables and figures — per-layer score tables, insularity
// rankings and CDF, score histograms, usage curves, the three dependence
// matrices, cross-border case studies, the TLD study, and the all-layer
// summary — against a corpus whose index starts cold (dropped at the top
// of each iteration, as a fresh measurement run would see it).
func BenchmarkExperimentsSuite(b *testing.B) {
	_, corpus := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.InvalidateScoringIndex()
		for _, layer := range countries.Layers {
			_ = analysis.SortedScores(corpus, layer)
			_ = analysis.SortedInsularity(corpus, layer)
			_ = analysis.InsularityCDF(corpus, layer)
			_, _ = analysis.ScoreHistogram(corpus, layer, 13)
			_ = analysis.BySubregion(analysis.SortedScores(corpus, layer))
		}
		_ = corpus.ScoreSet().UsageCurves(countries.Hosting)
		_ = analysis.ContinentDependence(corpus, analysis.ByProviderHQ)
		_ = analysis.ContinentDependence(corpus, analysis.ByIPGeolocation)
		_ = analysis.ContinentDependence(corpus, analysis.ByNSGeolocation)
		_ = analysis.CaseStudies(corpus)
		_ = analysis.TLDBreakdowns(corpus)
		if _, err := analysis.StudyTLD(corpus); err != nil {
			b.Fatal(err)
		}
		_ = analysis.SummarizeLayers(corpus)
	}
}

// BenchmarkCrawlCorpusGlobalBudget measures the corpus-level live crawl:
// two countries sharing one worker pool over real DNS and TLS.
func BenchmarkCrawlCorpusGlobalBudget(b *testing.B) {
	ccs := []string{"TH", "CZ"}
	w, err := worldgen.Build(worldgen.Config{
		Seed: 7, SitesPerCountry: 30, Countries: ccs, DomesticPerCountry: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	live := &pipeline.Live{
		Pipeline: pipeline.FromWorld(w),
		DNS:      resolver.NewClient(ep.DNSAddr),
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  ep.TLSAddr,
		Workers:  8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := live.CrawlCorpus(context.Background(), "bench", ccs,
			func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md's design-choice list) ---

// BenchmarkAblationClosedFormVsSolver compares the closed-form 𝒮 against
// the exact transportation solver on the same distribution: the closed form
// is what makes country-scale scoring free.
func BenchmarkAblationClosedFormVsSolver(b *testing.B) {
	counts := []int{40, 25, 12, 8, 5, 4, 3, 2, 1}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = emd.CentralizationInts(counts)
		}
	})
	b.Run("transportation-solver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := emd.ReferenceEMD(counts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAffinityVsThreshold compares affinity-propagation
// classification against a naive threshold-only classifier (no
// clustering): the paper's pipeline pays the clustering cost to group
// similar providers before labeling.
func BenchmarkAblationAffinityVsThreshold(b *testing.B) {
	_, corpus := setup(b)
	b.Run("affinity-propagation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := classify.Layer(corpus, countries.Hosting, classify.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threshold-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			curves := corpus.ScoreSet().UsageCurves(countries.Hosting)
			buckets := map[string]int{}
			for _, curve := range curves {
				switch {
				case curve.EndemicityRatio() > 0.8:
					buckets["regional"]++
				case curve.Usage() > 100:
					buckets["large-global"]++
				default:
					buckets["small-global"]++
				}
			}
		}
	})
}

// BenchmarkAblationEndemicityRatio compares raw endemicity against the
// normalized ratio the paper adopts (Section 3.3's size correction).
func BenchmarkAblationEndemicityRatio(b *testing.B) {
	_, corpus := setup(b)
	curves := corpus.ScoreSet().UsageCurves(countries.Hosting)
	b.Run("raw-endemicity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, curve := range curves {
				_ = curve.Endemicity()
			}
		}
	})
	b.Run("endemicity-ratio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, curve := range curves {
				_ = curve.EndemicityRatio()
			}
		}
	})
}

// BenchmarkAblationCrawlWorkers sweeps the live crawl's worker count
// (pipeline.Live.Workers), the knob a real crawl tunes first, over one
// served 40-site country: DNS, TLS and enrichment per site.
func BenchmarkAblationCrawlWorkers(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed: 7, SitesPerCountry: 40, Countries: []string{"US"}, DomesticPerCountry: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	domains := w.Truth.Get("US").Domains()
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			live := &pipeline.Live{
				Pipeline: pipeline.FromWorld(w),
				DNS:      resolver.NewClient(ep.DNSAddr),
				Scanner:  tlsscan.New(w.Owners),
				TLSAddr:  ep.TLSAddr,
				Workers:  workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := live.CrawlCountry(context.Background(), "US", "bench", domains); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGeoErrorSensitivity measures how the geolocation error
// model changes enrichment cost (and, in tests, how little it moves the
// scores — provider attribution does not flow through geolocation).
func BenchmarkAblationGeoErrorSensitivity(b *testing.B) {
	for _, rate := range []float64{0, 0.106} {
		b.Run(fmt.Sprintf("error-%.3f", rate), func(b *testing.B) {
			w, err := worldgen.Build(worldgen.Config{
				Seed: 3, SitesPerCountry: 500, Countries: []string{"US", "DE"},
				DomesticPerCountry: 10, GeoErrorRate: rate,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := pipeline.FromWorld(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MeasureWorld(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

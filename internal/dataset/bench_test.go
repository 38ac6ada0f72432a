package dataset

import (
	"testing"

	"github.com/webdep/webdep/internal/countries"
)

// benchCorpus is a 12-country, 1000-site corpus — large enough that the
// cold/cached gap reflects real extraction work, small enough for CI's
// bench smoke.
func benchCorpus() *Corpus {
	return syntheticCorpus(42, []string{
		"TH", "IR", "US", "CZ", "DE", "FR", "JP", "BR", "RU", "IN", "NG", "KR",
	}, 1000)
}

// BenchmarkCorpusScoresCold measures the full scoring path with the
// columnar index dropped before every iteration: one parallel extraction
// pass over every site plus the per-layer score reads. This is the cost
// the pre-index code paid on every Scores call for a single layer times
// however many layers were asked for.
func BenchmarkCorpusScoresCold(b *testing.B) {
	corpus := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.InvalidateScoringIndex()
		for _, layer := range countries.Layers {
			_ = corpus.ScoreSet().Scores(layer)
		}
	}
}

// BenchmarkCorpusScoresCached measures the steady state every analysis
// entry point after the first now runs in: all four layers' scores read
// from the warm index. The acceptance bar for the index is ≥3× faster and
// ≥10× fewer allocs/op than BenchmarkCorpusScoresCold.
func BenchmarkCorpusScoresCached(b *testing.B) {
	corpus := benchCorpus()
	for _, layer := range countries.Layers {
		_ = corpus.ScoreSet().Scores(layer) // warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, layer := range countries.Layers {
			_ = corpus.ScoreSet().Scores(layer)
		}
	}
}

// BenchmarkDistributionOfCached isolates the per-country read path the
// report/classify/experiments rewiring depends on: frozen distributions
// with memoized Score/Ranked must cost a map lookup, not a sort.
func BenchmarkDistributionOfCached(b *testing.B) {
	corpus := benchCorpus()
	ccs := corpus.Countries()
	_ = corpus.ScoreSet().Scores(countries.Hosting) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cc := range ccs {
			d := corpus.ScoreSet().DistributionOf(cc, countries.Hosting)
			_ = d.Score()
			_ = d.HHI()
		}
	}
}

// BenchmarkIndexBuild isolates the one-time cost the cache amortizes: the
// parallel columnar extraction itself, with no score reads.
func BenchmarkIndexBuild(b *testing.B) {
	corpus := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.InvalidateScoringIndex()
		_ = corpus.index()
	}
}

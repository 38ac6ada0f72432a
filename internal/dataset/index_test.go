package dataset

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/parallel"
)

// fullResults snapshots every index-backed entry point for equality
// comparison against a fresh, never-scored corpus.
type fullResults struct {
	Scores       []map[string]float64
	Insularities []map[string]float64
	GlobalScores []float64
	UsageMatrix  []map[string]map[string]float64
}

func snapshot(c *Corpus) fullResults {
	var r fullResults
	for _, layer := range countries.Layers {
		r.Scores = append(r.Scores, c.ScoreSet().Scores(layer))
		r.Insularities = append(r.Insularities, c.ScoreSet().Insularities(layer))
		r.GlobalScores = append(r.GlobalScores, c.ScoreSet().GlobalDistribution(layer).Score())
		r.UsageMatrix = append(r.UsageMatrix, c.ScoreSet().UsageMatrix(layer))
	}
	return r
}

// TestScoringCacheInvalidatedByAdd scores a corpus (warming the index),
// replaces one country's list via Add — exactly what the checkpoint-resume
// merge path does — scores again, and requires the result to equal a fresh
// corpus that never had a cache.
func TestScoringCacheInvalidatedByAdd(t *testing.T) {
	ccs := []string{"TH", "IR", "US", "CZ", "DE"}
	corpus := syntheticCorpus(3, ccs, 200)
	_ = snapshot(corpus) // warm the index with the original rows

	// Replace TH with a differently-seeded list, as a resume replacing a
	// partially-crawled country would.
	replacement := syntheticCorpus(99, []string{"TH"}, 200).Get("TH")
	corpus.Add(replacement)
	got := snapshot(corpus)

	fresh := syntheticCorpus(3, ccs, 200)
	fresh.Add(syntheticCorpus(99, []string{"TH"}, 200).Get("TH"))
	want := snapshot(fresh)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-Add scores diverge from a never-cached corpus:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestScoringCacheInvalidatedBySetCoverage verifies SetCoverage also drops
// the index (a live crawl interleaves Add and SetCoverage per country).
func TestScoringCacheInvalidatedBySetCoverage(t *testing.T) {
	corpus := syntheticCorpus(5, []string{"TH", "US"}, 50)
	_ = corpus.ScoreSet().Scores(countries.Hosting)
	if corpus.scoring.Load() == nil {
		t.Fatal("index not built by Scores")
	}
	corpus.SetCoverage(&Coverage{Country: "TH"})
	if corpus.scoring.Load() != nil {
		t.Fatal("SetCoverage left a stale index cached")
	}
}

// TestInvalidateScoringIndexAfterInPlaceMutation covers the documented
// escape hatch: mutating a list's Sites in place requires an explicit
// invalidation before the next scoring call.
func TestInvalidateScoringIndexAfterInPlaceMutation(t *testing.T) {
	corpus := syntheticCorpus(7, []string{"TH", "US", "DE"}, 150)
	before := corpus.ScoreSet().Scores(countries.Hosting)

	list := corpus.Get("TH")
	for i := range list.Sites {
		list.Sites[i].HostProvider = "Monopoly"
		list.Sites[i].HostProviderCountry = "US"
	}
	// Without invalidation the cached scores are (by design) stale.
	if got := corpus.ScoreSet().Scores(countries.Hosting); !reflect.DeepEqual(got, before) {
		t.Fatal("in-place mutation without invalidation should still read the cache")
	}
	corpus.InvalidateScoringIndex()
	after := corpus.ScoreSet().Scores(countries.Hosting)
	if reflect.DeepEqual(after, before) {
		t.Fatal("invalidation did not trigger a rebuild")
	}
	// A monopoly hosting layer scores 1 − 1/C for TH.
	c := float64(len(list.Sites))
	if want := 1 - 1/c; after["TH"] != want {
		t.Fatalf("TH monopoly score = %v, want %v", after["TH"], want)
	}
}

// TestScoringIndexConcurrentReads hammers every index-backed entry point
// from concurrent goroutines across all four layers, starting from a cold
// index so the build race (double-checked pointer + build mutex) is also
// exercised. Run under -race in CI.
func TestScoringIndexConcurrentReads(t *testing.T) {
	corpus := syntheticCorpus(11, []string{"TH", "IR", "US", "CZ", "DE", "FR", "JP", "BR"}, 120)
	corpus.Workers = 4

	const goroutines = 16
	const rounds = 8
	want := snapshot(syntheticCorpus(11, []string{"TH", "IR", "US", "CZ", "DE", "FR", "JP", "BR"}, 120))

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				layer := countries.Layers[(g+r)%len(countries.Layers)]
				li := int(layer)
				if got := corpus.ScoreSet().Scores(layer); !reflect.DeepEqual(got, want.Scores[li]) {
					errs <- "Scores mismatch under concurrency"
					return
				}
				if got := corpus.ScoreSet().Insularities(layer); !reflect.DeepEqual(got, want.Insularities[li]) {
					errs <- "Insularities mismatch under concurrency"
					return
				}
				if got := corpus.ScoreSet().GlobalDistribution(layer).Score(); got != want.GlobalScores[li] {
					errs <- "GlobalDistribution score mismatch under concurrency"
					return
				}
				for _, cc := range corpus.Countries() {
					d := corpus.ScoreSet().DistributionOf(cc, layer)
					_ = d.Score()
					_ = d.Ranked()
					_ = d.RankCurve()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestScoringIndexDeterministicAcrossWorkers builds the index at several
// worker counts and requires identical results, including the interned
// symbol table (interning order is fixed: sorted country, layer, rank).
func TestScoringIndexDeterministicAcrossWorkers(t *testing.T) {
	ccs := []string{"TH", "IR", "US", "CZ", "DE", "FR"}
	base := syntheticCorpus(13, ccs, 300)
	base.Workers = 1
	want := snapshot(base)
	wantSyms := base.index().providers.names

	for _, workers := range []int{2, 3, 8} {
		c := syntheticCorpus(13, ccs, 300)
		c.Workers = workers
		if got := snapshot(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
		if got := c.index().providers.names; !reflect.DeepEqual(got, wantSyms) {
			t.Fatalf("workers=%d: symbol table differs: %v vs %v", workers, got, wantSyms)
		}
	}
}

// TestIndexMatchesPerListComputation cross-checks the columnar extraction
// against the row-scan primitives it replaced: per-country distributions
// and insularity tallies computed directly from CountryList must agree
// exactly with the index.
func TestIndexMatchesPerListComputation(t *testing.T) {
	corpus := syntheticCorpus(17, []string{"TH", "IR", "US", "CZ"}, 250)
	for _, layer := range countries.Layers {
		scores := corpus.ScoreSet().Scores(layer)
		ins := corpus.ScoreSet().Insularities(layer)
		for cc, list := range corpus.Lists {
			if want := list.Distribution(layer).Score(); scores[cc] != want {
				t.Errorf("%s/%v: indexed score %v != direct %v", cc, layer, scores[cc], want)
			}
			if want := list.Insularity(layer).Fraction(); ins[cc] != want {
				t.Errorf("%s/%v: indexed insularity %v != direct %v", cc, layer, ins[cc], want)
			}
			direct := list.Distribution(layer)
			indexed := corpus.ScoreSet().DistributionOf(cc, layer)
			if !reflect.DeepEqual(direct.Ranked(), indexed.Ranked()) {
				t.Errorf("%s/%v: ranked providers diverge", cc, layer)
			}
			if direct.Total() != indexed.Total() {
				t.Errorf("%s/%v: totals diverge", cc, layer)
			}
		}
	}
}

// TestScoringExtractionCannotFail pins the invariant buildIndex relies on
// when it panics instead of propagating parallel.Map's error: with a
// background (never-cancelled) context and an infallible fn, Map returns a
// nil error at every worker count. A fallible fn, by contrast, does
// propagate — so the panic guard is the only way a future fallible
// extraction could be silently swallowed, and it is loud.
func TestScoringExtractionCannotFail(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		_, err := parallel.Map(context.Background(), workers, 50,
			func(context.Context, int) (int, error) { return 0, nil })
		if err != nil {
			t.Fatalf("workers=%d: infallible Map returned %v", workers, err)
		}
	}
	// Sanity: the pool does not swallow real errors.
	_, err := parallel.Map(context.Background(), 4, 50,
		func(_ context.Context, i int) (int, error) {
			if i == 7 {
				return 0, context.Canceled
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("fallible Map swallowed its error")
	}
}

// TestUsageCurvesMatchUsageMatrix holds the two usage surfaces together:
// UsageCurves fills its slices from the index columns without going through
// UsageMatrix's nested maps, and must still be, bit for bit, the curve of
// each matrix row over the full country list — zeros for countries that
// never saw the provider and for a country with no measured sites at all.
func TestUsageCurvesMatchUsageMatrix(t *testing.T) {
	corpus := syntheticCorpus(11, []string{"TH", "IR", "US", "CZ", "DE"}, 200)
	corpus.Add(&CountryList{Country: "JP", Epoch: corpus.Epoch})
	ccs := corpus.Countries()
	for _, layer := range countries.Layers {
		want := make(map[string]core.UsageCurve)
		for provider, byCountry := range corpus.ScoreSet().UsageMatrix(layer) {
			vals := make([]float64, len(ccs))
			for i, cc := range ccs {
				vals[i] = byCountry[cc]
			}
			want[provider] = core.NewUsageCurve(vals)
		}
		if got := corpus.ScoreSet().UsageCurves(layer); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: UsageCurves differ from the curves of UsageMatrix (%d vs %d providers)", layer, len(got), len(want))
		}
	}
}

package depgraph

import (
	"path/filepath"
	"sync"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// Benchmark world: 8 countries x 2000 sites, built once and shared —
// large enough that build cost is dominated by extraction and merge, not
// fixture setup.
var benchWorld struct {
	once   sync.Once
	corpus *dataset.Corpus
	err    error
}

func benchCorpus(b testing.TB) *dataset.Corpus {
	b.Helper()
	benchWorld.once.Do(func() {
		w, err := worldgen.Build(worldgen.Config{
			Seed:            42,
			SitesPerCountry: 2000,
			Countries:       []string{"AU", "BR", "DE", "IN", "IR", "JP", "TH", "US"},
		})
		if err != nil {
			benchWorld.err = err
			return
		}
		benchWorld.corpus, benchWorld.err = pipeline.FromWorld(w).MeasureWorld(w)
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.corpus
}

func BenchmarkGraphBuild(b *testing.B) {
	corpus := benchCorpus(b)
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Build(corpus, &Options{Obs: reg})
		if g.Nodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkGraphFromStore(b *testing.B) {
	corpus := benchCorpus(b)
	dir := filepath.Join(b.TempDir(), "bench.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		b.Fatal(err)
	}
	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := FromStore(st, &Options{Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		if g.Nodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	g := Build(benchCorpus(b), &Options{Obs: obs.NewRegistry()})
	// Simulate the worst SPOF: the most dependents, so the bench shows a
	// simulation's cost does not grow with them.
	worst := g.TopSPOFs(1)[0].Provider
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Simulate(worst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopSPOFs(b *testing.B) {
	g := Build(benchCorpus(b), &Options{Obs: obs.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if spofs := g.TopSPOFs(10); len(spofs) == 0 {
			b.Fatal("no SPOFs")
		}
	}
}

func BenchmarkTransitiveScores(b *testing.B) {
	corpus := benchCorpus(b)
	g := Build(corpus, &Options{Obs: obs.NewRegistry()})
	layer := graphLayers[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scores := g.TransitiveScores(layer); len(scores) == 0 {
			b.Fatal("no scores")
		}
	}
}

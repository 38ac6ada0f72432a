package classify

import (
	"os"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// TestCapSensitivity records what the iteration cap does at the benchmark's
// own shape — every country × 2,000 sites, 20 domestic providers each, 600
// clustered of ~3,100 providers — for EXPERIMENTS.md's "What the iteration
// cap is doing" table: per layer and cap, the cluster count, the rounds run,
// and how many of the clustered providers sit in a different cluster or
// class than under the production cap of 300. It asserts only whether each
// run converges. Hosting and DNS do not, at any cap, so the cap chooses
// their classes; a kernel change that makes them converge fails here, and
// its author re-measures the table and the Tables 1–3 rows beside it.
// Gated behind WEBDEP_SCALE_SMOKE=1: about a minute.
func TestCapSensitivity(t *testing.T) {
	if os.Getenv("WEBDEP_SCALE_SMOKE") == "" {
		t.Skip("set WEBDEP_SCALE_SMOKE=1 to measure the iteration cap's effect at benchmark scale")
	}
	caps := []int{100, 200, 300, 600, 1200, 5000}
	converges := map[countries.Layer]bool{
		countries.Hosting: false,
		countries.DNS:     false,
		countries.CA:      true,
	}
	for _, seed := range []int64{7, 11} {
		w, err := worldgen.Build(worldgen.Config{Seed: seed, SitesPerCountry: 2000, DomesticPerCountry: 20})
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
		if err != nil {
			t.Fatal(err)
		}
		ss := corpus.ScoreSet()
		for _, layer := range []countries.Layer{countries.Hosting, countries.DNS, countries.CA} {
			runs := make(map[int]*Result, len(caps))
			for _, c := range caps {
				opts := DefaultOptions()
				opts.Cluster.MaxIterations = c
				res, err := Layer(ss, layer, opts)
				if err != nil {
					t.Fatalf("seed %d %v cap %d: %v", seed, layer, c, err)
				}
				runs[c] = res
			}
			at300 := runs[300]
			clustered := min(len(at300.Features), DefaultOptions().MaxClustered)
			for _, c := range caps {
				res := runs[c]
				differ := 0
				for i := 0; i < clustered; i++ {
					if a, b := res.Features[i], at300.Features[i]; a.Cluster != b.Cluster || a.Class != b.Class {
						differ++
					}
				}
				t.Logf("seed %d %-7v cap %4d: %3d clusters after %4d rounds, converged=%-5v, %3d of %d clustered providers differ from cap 300 (%d providers)",
					seed, layer, c, res.Clusters, res.Iterations, res.Converged, differ, clustered, len(res.Features))
				if res.Converged != converges[layer] {
					t.Errorf("seed %d %v cap %d: converged=%v, recorded %v — re-measure EXPERIMENTS.md's iteration-cap table",
						seed, layer, c, res.Converged, converges[layer])
				}
			}
		}
	}
}

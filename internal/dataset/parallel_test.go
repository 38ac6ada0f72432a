package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/countries"
)

// syntheticCorpus builds a deterministic multi-country corpus with enough
// provider variety to make the scoring paths nontrivial.
func syntheticCorpus(seed int64, ccs []string, sitesPer int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	providers := []struct{ name, country string }{
		{"Cloudflare", "US"}, {"Amazon", "US"}, {"Hetzner", "DE"},
		{"OVH", "FR"}, {"LocalHost", ""}, {"", ""},
	}
	corpus := NewCorpus("2023-05")
	for _, cc := range ccs {
		list := &CountryList{Country: cc, Epoch: "2023-05"}
		for i := 0; i < sitesPer; i++ {
			host := providers[rng.Intn(len(providers))]
			dns := providers[rng.Intn(len(providers))]
			hostCountry := host.country
			if host.name == "LocalHost" {
				hostCountry = cc // a domestic provider per country
			}
			list.Sites = append(list.Sites, Website{
				Domain: fmt.Sprintf("site%d.%s", i, cc), Country: cc, Rank: i + 1,
				HostProvider: host.name, HostProviderCountry: hostCountry,
				DNSProvider: dns.name, DNSProviderCountry: dns.country,
				CAOwner: "Let's Encrypt", CAOwnerCountry: "US",
				TLD: "com",
			})
		}
		corpus.Add(list)
	}
	return corpus
}

// TestCorpusComputationsDeterministicAcrossWorkers asserts Scores,
// Insularities, UsageMatrix, UsageCurves, and GlobalDistribution return
// deeply equal results at workers=1 and workers=8 on the same corpus.
func TestCorpusComputationsDeterministicAcrossWorkers(t *testing.T) {
	ccs := []string{"TH", "IR", "US", "CZ", "DE", "FR", "JP", "BR", "IN", "NG"}
	seq := syntheticCorpus(11, ccs, 400)
	par := syntheticCorpus(11, ccs, 400)
	seq.Workers = 1
	par.Workers = 8

	for _, layer := range countries.Layers {
		if a, b := seq.Scores(layer), par.Scores(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Scores differ across worker counts:\n w1 %v\n w8 %v", layer, a, b)
		}
		if a, b := seq.ScoreSet().Insularities(layer), par.ScoreSet().Insularities(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Insularities differ across worker counts", layer)
		}
		if a, b := seq.ScoreSet().UsageMatrix(layer), par.ScoreSet().UsageMatrix(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: UsageMatrix differs across worker counts", layer)
		}
		if a, b := seq.UsageCurves(layer), par.UsageCurves(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: UsageCurves differ across worker counts", layer)
		}
		a := seq.ScoreSet().GlobalDistribution(layer)
		b := par.ScoreSet().GlobalDistribution(layer)
		if !reflect.DeepEqual(a.Ranked(), b.Ranked()) || a.Score() != b.Score() {
			t.Errorf("%v: GlobalDistribution differs across worker counts", layer)
		}
	}
}

// TestCorpusComputationsStableAcrossRuns guards against run-to-run drift
// (e.g. map-iteration order leaking into float reductions): two identical
// corpora with the same worker count must agree exactly.
func TestCorpusComputationsStableAcrossRuns(t *testing.T) {
	ccs := []string{"TH", "US", "DE"}
	a := syntheticCorpus(5, ccs, 200)
	b := syntheticCorpus(5, ccs, 200)
	a.Workers = 4
	b.Workers = 4
	for _, layer := range countries.Layers {
		if !reflect.DeepEqual(a.Scores(layer), b.Scores(layer)) {
			t.Errorf("%v: Scores not reproducible", layer)
		}
		if !reflect.DeepEqual(a.ScoreSet().UsageMatrix(layer), b.ScoreSet().UsageMatrix(layer)) {
			t.Errorf("%v: UsageMatrix not reproducible", layer)
		}
	}
}

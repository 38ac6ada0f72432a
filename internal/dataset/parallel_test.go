package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/countries"
)

// syntheticCorpus builds a deterministic multi-country corpus with enough
// provider and TLD variety to make the scoring paths nontrivial.
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
				// The country's own ccTLD, .com (insular to the U.S.), a
				// gTLD insular to no one, and an unmeasured TLD, in turn.
				TLD: [...]string{strings.ToLower(cc), "com", "org", ""}[i%4],
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
		if a, b := seq.ScoreSet().Scores(layer), par.ScoreSet().Scores(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Scores differ across worker counts:\n w1 %v\n w8 %v", layer, a, b)
		}
		if a, b := seq.ScoreSet().Insularities(layer), par.ScoreSet().Insularities(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: Insularities differ across worker counts", layer)
		}
		if a, b := seq.ScoreSet().UsageMatrix(layer), par.ScoreSet().UsageMatrix(layer); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: UsageMatrix differs across worker counts", layer)
		}
		if a, b := seq.ScoreSet().UsageCurves(layer), par.ScoreSet().UsageCurves(layer); !reflect.DeepEqual(a, b) {
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
		if !reflect.DeepEqual(a.ScoreSet().Scores(layer), b.ScoreSet().Scores(layer)) {
			t.Errorf("%v: Scores not reproducible", layer)
		}
		if !reflect.DeepEqual(a.ScoreSet().UsageMatrix(layer), b.ScoreSet().UsageMatrix(layer)) {
			t.Errorf("%v: UsageMatrix not reproducible", layer)
		}
	}
}

// TestScoreSetIndependentOfOrderAndCores: an index's columns are built one
// country per worker and interned on the caller, so the whole score set —
// symbol table, columns, usage curves — is the same at any worker count, and
// tallies handed to BuildScoreSet in any order, on any number of cores, give
// that same set.
func TestScoreSetIndependentOfOrderAndCores(t *testing.T) {
	ccs := []string{"TH", "IR", "US", "CZ", "DE", "FR", "JP", "BR", "IN", "NG"}
	want := syntheticCorpus(11, ccs, 300)
	want.Workers = 1
	for _, workers := range []int{2, 8} {
		c := syntheticCorpus(11, ccs, 300)
		c.Workers = workers
		if !reflect.DeepEqual(c.ScoreSet(), want.ScoreSet()) {
			t.Fatalf("%d workers: score set differs from one worker's", workers)
		}
	}
	rng := rand.New(rand.NewSource(3))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		var tallies []*CountryTally
		for _, cc := range want.Countries() {
			tl := NewCountryTally(cc)
			for i := range want.Lists[cc].Sites {
				tl.Observe(&want.Lists[cc].Sites[i])
			}
			tallies = append(tallies, tl)
		}
		rng.Shuffle(len(tallies), func(i, j int) { tallies[i], tallies[j] = tallies[j], tallies[i] })
		ss, err := BuildScoreSet(tallies)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range countries.Layers {
			if !reflect.DeepEqual(ss.UsageCurves(layer), want.ScoreSet().UsageCurves(layer)) {
				t.Fatalf("GOMAXPROCS %d: %v usage curves differ", procs, layer)
			}
		}
		if !reflect.DeepEqual(ss, want.ScoreSet()) {
			t.Fatalf("GOMAXPROCS %d: shuffled tallies give a different score set", procs)
		}
	}
}

package depgraph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// hostileCorpus draws a corpus that makes symbol IDs collide with the
// tally's skip rules: unmeasured providers, measured providers with no
// country, self-pairs, and providers named exactly like a country code, so
// that a shard's own country symbol turns up in provider columns.
func hostileCorpus(t *testing.T, seed int64) *dataset.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"", "", "US", "DE", "JP", "Cloudflare", "Hetzner"}
	pick := func() string { return names[rng.Intn(len(names))] }
	rows := map[string][]dataset.Website{}
	for _, cc := range []string{"DE", "JP", "US"} {
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			w := site(pick(), pick(), pick(), pick(), pick(), pick())
			w.Domain = fmt.Sprintf("s%d.test", i)
			w.TLD = pick()
			rows[cc] = append(rows[cc], w)
		}
	}
	return handCorpus(t, rows)
}

// TestFromStoreMatchesBuildOnHostileCorpora holds the two representations
// of the graph tally's skip rules equal end to end: FromStore counts the
// store's symbol IDs, Build reads Website strings, and the graphs must be
// the same structure and give the same answers, compared as JSON. Blocks of
// one row make every symbol arrive in a different block from the last. The
// combined scan is held to the same graph, and its scores to the corpus's.
func TestFromStoreMatchesBuildOnHostileCorpora(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		corpus := hostileCorpus(t, seed)
		dir := filepath.Join(t.TempDir(), "corpus.store")
		opts := &corpusstore.Options{Obs: obs.NewRegistry(), BlockRows: []int{1, 6, 4096}[seed%3]}
		if err := corpusstore.Save(dir, corpus, opts); err != nil {
			t.Fatal(err)
		}
		st, err := corpusstore.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromStore(st, &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		want := Build(corpus, &Options{Obs: obs.NewRegistry()})
		equalGraphs(t, got, want)
		scores, scanned, err := ScanStore(st, &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		equalGraphs(t, scanned, want)
		equalScores(t, scores, corpus.ScoreSet())

		answers := func(g *Graph) string {
			type answer struct {
				Stats   StatsSnapshot
				SPOFs   []SPOF
				Scores  map[string]map[string]float64
				Impacts []*Impact
			}
			a := answer{Stats: g.Stats(), SPOFs: g.TopSPOFs(g.Nodes()), Scores: map[string]map[string]float64{}}
			for _, l := range Layers() {
				a.Scores[l.String()] = g.TransitiveScores(l)
			}
			for p := 0; p < g.Nodes(); p++ {
				imp, err := g.Simulate(g.NameOf(uint32(p)))
				if err != nil {
					t.Fatal(err)
				}
				a.Impacts = append(a.Impacts, imp)
			}
			out, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		if g, w := answers(got), answers(want); g != w {
			t.Fatalf("seed %d: FromStore answers\n %s\nBuild answers\n %s", seed, g, w)
		}
	}
}

// TestObserveBlockMatchesObserve is the same property at the tally, where
// a country of "" — which the store cannot hold — can be covered too: rows
// observed as Websites and as blocks of symbol IDs leave identical tallies.
func TestObserveBlockMatchesObserve(t *testing.T) {
	for _, cc := range []string{"US", ""} {
		for seed := int64(1); seed <= 12; seed++ {
			corpus := hostileCorpus(t, seed)
			byRow, byBlock := NewTally(cc), NewTally(cc)
			ids, names := map[string]uint32{}, []string(nil)
			intern := func(s string) uint32 {
				id, ok := ids[s]
				if !ok {
					id = uint32(len(names))
					ids[s] = id
					names = append(names, s)
				}
				return id
			}
			// One block per source list: three blocks over one growing table.
			for _, list := range corpus.Lists {
				var b dataset.SymbolBlock
				for i := range list.Sites {
					w := &list.Sites[i]
					byRow.Observe(w)
					for c, s := range [dataset.NumSymbolColumns]string{
						dataset.SymHostProvider: w.HostProvider, dataset.SymHostProviderCountry: w.HostProviderCountry,
						dataset.SymDNSProvider: w.DNSProvider, dataset.SymDNSProviderCountry: w.DNSProviderCountry,
						dataset.SymCAOwner: w.CAOwner, dataset.SymCAOwnerCountry: w.CAOwnerCountry,
						dataset.SymTLD: w.TLD,
					} {
						b.Cols[c] = append(b.Cols[c], intern(s))
					}
				}
				b.Names = names
				byBlock.ObserveBlock(&b)
			}
			byBlock.fold()
			if !reflect.DeepEqual(byBlock, byRow) {
				t.Fatalf("country %q seed %d: block tally\n %+v\nrow tally\n %+v", cc, seed, byBlock, byRow)
			}
		}
	}
}

// TestFromStoreAllocsPerRow is the allocation gate on the streamed graph
// build: evidence is counted per symbol and per distinct pair, never
// allocated per row. A return to a string or a Website per row costs three
// allocations a row and fails here, not in a later benchmark read.
func TestFromStoreAllocsPerRow(t *testing.T) {
	corpus := benchCorpus(t)
	dir := filepath.Join(t.TempDir(), "bench.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Obs: obs.NewRegistry()}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := FromStore(st, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(corpus.TotalSites()); perRow > 0.5 {
		t.Errorf("FromStore allocates %.2f times per row (%.0f for %d rows), want at most 0.5",
			perRow, allocs, corpus.TotalSites())
	}
}

package depgraph

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// TestTopSPOFsTieBreak pins the deterministic ordering of equal blast
// radii: radius descending, then provider symbol ascending, then name.
// Symbols are interned in (sorted country, layer, count desc, name asc)
// order, so the cases below control both the radii and the symbol
// assignment precisely.
func TestTopSPOFsTieBreak(t *testing.T) {
	cases := []struct {
		name string
		rows map[string][]dataset.Website
		want []string // provider names in expected rank order
	}{
		{
			// Three hosts with identical weight in one country: symbols
			// follow name order (count ties intern name-asc), so the
			// ranking is alphabetical.
			name: "equal radii same country",
			rows: map[string][]dataset.Website{
				"US": {
					site("Beta", "US", "", "", "", ""),
					site("Alpha", "US", "", "", "", ""),
					site("Gamma", "US", "", "", "", ""),
				},
			},
			want: []string{"Alpha", "Beta", "Gamma"},
		},
		{
			// Equal radii across countries: Zeta is interned first (AA
			// sorts before BB), so symbol order — not name order — must
			// decide, putting Zeta ahead of Alpha.
			name: "symbol order beats name order",
			rows: map[string][]dataset.Website{
				"AA": {
					site("Zeta", "AA", "", "", "", ""),
					site("Zeta", "AA", "", "", "", ""),
				},
				"BB": {
					site("Alpha", "BB", "", "", "", ""),
					site("Alpha", "BB", "", "", "", ""),
				},
			},
			want: []string{"Zeta", "Alpha"},
		},
		{
			// Unequal radii still dominate: the smaller-symbol provider
			// with less weight ranks below.
			name: "radius dominates symbol",
			rows: map[string][]dataset.Website{
				"US": {
					site("Big", "US", "", "", "", ""),
					site("Big", "US", "", "", "", ""),
					site("Ant", "US", "", "", "", ""),
				},
			},
			want: []string{"Big", "Ant"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := handCorpus(t, tc.rows)
			for _, workers := range []int{1, 4} {
				g := Build(c, &Options{Workers: workers, Obs: obs.NewRegistry()})
				spofs := g.TopSPOFs(0)
				if len(spofs) != len(tc.want) {
					t.Fatalf("workers=%d: got %d SPOFs, want %d", workers, len(spofs), len(tc.want))
				}
				for i, want := range tc.want {
					if spofs[i].Provider != want {
						got := make([]string, len(spofs))
						for j := range spofs {
							got[j] = spofs[j].Provider
						}
						t.Fatalf("workers=%d: rank order %v, want %v", workers, got, tc.want)
					}
				}
			}
		})
	}
}

func TestTopSPOFsTruncationAndShare(t *testing.T) {
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {
			site("HostA", "US", "DNSX", "US", "CAZ", "US"),
			site("HostA", "US", "DNSX", "US", "CAZ", "US"),
			site("HostB", "US", "DNSX", "US", "CAZ", "US"),
		},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	all := g.TopSPOFs(0)
	if len(all) != 4 {
		t.Fatalf("got %d providers, want 4", len(all))
	}
	top := g.TopSPOFs(2)
	if len(top) != 2 {
		t.Fatalf("TopSPOFs(2) returned %d entries", len(top))
	}
	// CAZ underpins every binding: all 3 hosting + 3 DNS + 3 CA = 9 of 9.
	if top[0].Provider != "CAZ" || top[0].Radius != 9 || top[0].Share != 1 {
		t.Fatalf("worst SPOF = %+v, want CAZ radius 9 share 1", top[0])
	}
	if top[0].Hosting != 1 || top[0].DNS != 1 || top[0].CA != 1 {
		t.Fatalf("CAZ per-layer fractions = %+v, want all 1", top[0])
	}
	if top[0].Country != "US" {
		t.Fatalf("CAZ home = %q, want US", top[0].Country)
	}
}

func TestTransitiveScoresUnmodeledLayer(t *testing.T) {
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {site("HostA", "US", "", "", "", "")},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	if g.TransitiveScores(countries.TLD) != nil {
		t.Fatal("TLD layer should not be modeled by the graph")
	}
	if g.TransitiveDistribution("US", countries.TLD) != nil {
		t.Fatal("TLD distribution should be nil")
	}
	if g.TransitiveDistribution("ZZ", countries.Hosting) != nil {
		t.Fatal("unknown country distribution should be nil")
	}
}

func TestEmptyCorpus(t *testing.T) {
	c := dataset.NewCorpus("empty")
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	if g.Nodes() != 0 {
		t.Fatalf("empty corpus produced %d nodes", g.Nodes())
	}
	if spofs := g.TopSPOFs(10); len(spofs) != 0 {
		t.Fatalf("empty corpus produced SPOFs: %v", spofs)
	}
}

// topSPOFsReference is TopSPOFs as it was before the order moved into the
// graph build: every blast radius recomputed from the columns and the
// closure, then all providers sorted, per call. It is the oracle the
// precomputed order is held to.
func topSPOFsReference(g *Graph, n int) []SPOF {
	nodes := len(g.names)
	var weight [numGraphLayers][]int64
	for l := range weight {
		weight[l] = make([]int64, nodes)
		for i := range g.cols[l] {
			col := &g.cols[l][i]
			for k, s := range col.syms {
				weight[l][s] += col.counts[k]
			}
		}
	}
	var radius [numGraphLayers][]int64
	for l := range radius {
		radius[l] = make([]int64, nodes)
	}
	for p := 0; p < nodes; p++ {
		for _, q := range g.closure[p].members() {
			for l := 0; l < numGraphLayers; l++ {
				radius[l][q] += weight[l][p]
			}
		}
	}
	grand := g.layerTotal[0] + g.layerTotal[1] + g.layerTotal[2]
	out := make([]SPOF, nodes)
	for q := 0; q < nodes; q++ {
		r := radius[0][q] + radius[1][q] + radius[2][q]
		out[q] = SPOF{
			Provider: g.names[q],
			Country:  g.home[q],
			Sym:      uint32(q),
			Radius:   r,
			Share:    frac(r, grand),
			Hosting:  frac(radius[0][q], g.layerTotal[0]),
			DNS:      frac(radius[1][q], g.layerTotal[1]),
			CA:       frac(radius[2][q], g.layerTotal[2]),
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Radius != out[j].Radius {
			return out[i].Radius > out[j].Radius
		}
		if out[i].Sym != out[j].Sym {
			return out[i].Sym < out[j].Sym
		}
		return out[i].Provider < out[j].Provider
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// TestTopSPOFsMatchesReference holds the order built with the graph to the
// per-call compute-and-sort for every n, including n <= 0 and n past the
// node count, on generated worlds, on hostile corpora full of ties and
// unmeasured providers, and at several worker counts.
func TestTopSPOFsMatchesReference(t *testing.T) {
	corpora := []*dataset.Corpus{
		worldCorpus(t, 3, 120, []string{"TH", "DE", "BR"}),
		worldCorpus(t, 29, 60, []string{"US", "JP", "IN", "IR", "ZA"}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		corpora = append(corpora, hostileCorpus(t, seed))
	}
	for ci, c := range corpora {
		for _, workers := range []int{1, 3, 8} {
			g := Build(c, &Options{Workers: workers, Obs: obs.NewRegistry()})
			for n := -1; n <= g.Nodes()+1; n++ {
				if got, want := g.TopSPOFs(n), topSPOFsReference(g, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("corpus %d, workers %d: TopSPOFs(%d) differs from the reference\n got: %v\nwant: %v", ci, workers, n, got, want)
				}
			}
		}
	}
}

// TestTopSPOFsReturnsCallersSlice: the returned slice is a copy, so a caller
// that overwrites or re-sorts it cannot change what the next call returns.
func TestTopSPOFsReturnsCallersSlice(t *testing.T) {
	g := Build(worldCorpus(t, 3, 120, []string{"TH", "DE"}), &Options{Obs: obs.NewRegistry()})
	want := topSPOFsReference(g, 0)
	for _, n := range []int{0, 3} {
		got := g.TopSPOFs(n)
		for i := range got {
			got[i].Provider, got[i].Radius = "mutated", -1
		}
		slices.Reverse(got)
		_ = append(got[:1], SPOF{Provider: "appended"})
		if again := g.TopSPOFs(0); !reflect.DeepEqual(again, want) {
			t.Fatalf("mutating TopSPOFs(%d)'s result changed the next call", n)
		}
	}
}

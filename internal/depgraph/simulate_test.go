package depgraph

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// simulateReference is Simulate as it was before the blast table: the
// failed provider's dependents found by probing every closure bitset, then
// every (country, layer) column walked for their bindings. It is the
// oracle the table-read Simulate is held to.
func simulateReference(g *Graph, provider string) *Impact {
	x := g.ids[provider]
	dependents := newBitset(len(g.names))
	for p := range g.names {
		if g.closure[p].has(x) {
			dependents.set(uint32(p))
		}
	}
	imp := &Impact{Provider: provider, Countries: make([]CountryImpact, len(g.countries))}
	for i, cc := range g.countries {
		ci := &imp.Countries[i]
		ci.Country = cc
		for l := 0; l < numGraphLayers; l++ {
			col := &g.cols[l][i]
			li := ci.Layers.at(l)
			li.Measured = col.total
			for k, s := range col.syms {
				if dependents.has(s) {
					li.Lost += col.counts[k]
				}
			}
			tl := imp.Total.at(l)
			tl.Measured += li.Measured
			tl.Lost += li.Lost
		}
	}
	return imp
}

// requireSimulateMatchesReference holds Simulate to simulateReference for
// every provider of g.
func requireSimulateMatchesReference(t *testing.T, g *Graph, what string) {
	t.Helper()
	for p := uint32(0); p < uint32(g.Nodes()); p++ {
		name := g.NameOf(p)
		got, err := g.Simulate(name)
		if err != nil {
			t.Fatalf("%s: Simulate(%q): %v", what, name, err)
		}
		if want := simulateReference(g, name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Simulate(%q) differs from the closure probe\n got: %+v\nwant: %+v", what, name, got, want)
		}
	}
}

// TestSimulateMatchesReference holds the blast table, built with the SPOF
// order, to the closure probe for every provider, on generated worlds and
// on hostile corpora full of ties and unmeasured providers, at several
// worker counts.
func TestSimulateMatchesReference(t *testing.T) {
	corpora := []*dataset.Corpus{
		worldCorpus(t, 3, 120, []string{"TH", "DE", "BR"}),
		worldCorpus(t, 29, 60, []string{"US", "JP", "IN", "IR", "ZA"}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		corpora = append(corpora, hostileCorpus(t, seed))
	}
	for ci, c := range corpora {
		for _, workers := range []int{1, 2, 8} {
			g := Build(c, &Options{Workers: workers, Obs: obs.NewRegistry()})
			requireSimulateMatchesReference(t, g, fmt.Sprintf("corpus %d, workers %d", ci, workers))
		}
	}
}

// TestSimulateMatchesReferenceWithInjectedEdges: a provider edge added
// after the build, with the closure and the SPOF order recomputed as the
// merge computes them, moves the table exactly as it moves the closure
// probe — including edges that close a cycle.
func TestSimulateMatchesReferenceWithInjectedEdges(t *testing.T) {
	g := Build(worldCorpus(t, 17, 100, []string{"TH", "DE", "BR"}), &Options{Obs: obs.NewRegistry()})
	n := uint32(g.Nodes())
	for i := uint32(0); i < 12; i++ {
		from, to := (i*7)%n, (i*13+5)%n
		if from == to {
			continue
		}
		requireSimulateMatchesReference(t, cloneWithEdge(g, from, to), g.NameOf(from)+" -> "+g.NameOf(to))
		requireSimulateMatchesReference(t, cloneWithEdge(cloneWithEdge(g, from, to), to, from), g.NameOf(from)+" <-> "+g.NameOf(to))
	}
}

// TestSimulateAllocsFlat: a simulation reads the failed provider's row of
// the blast table, so what it allocates — the impact and its countries —
// is the same for the provider with the most dependents as for one with
// none but itself.
func TestSimulateAllocsFlat(t *testing.T) {
	g := Build(worldCorpus(t, 3, 120, []string{"TH", "DE", "BR"}), &Options{Obs: obs.NewRegistry()})
	off, _ := dependents(g.closure)
	widest, lone := uint32(0), -1
	for q := uint32(0); q < uint32(g.Nodes()); q++ {
		n := off[q+1] - off[q]
		if n > off[widest+1]-off[widest] {
			widest = q
		}
		if n == 1 && lone < 0 {
			lone = int(q)
		}
	}
	if off[widest+1]-off[widest] < 10 || lone < 0 {
		t.Fatalf("world lacks the contrast: widest has %d dependents, lone %d", off[widest+1]-off[widest], lone)
	}
	allocs := func(provider string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := g.Simulate(provider); err != nil {
				t.Fatal(err)
			}
		})
	}
	wide, one := allocs(g.NameOf(widest)), allocs(g.NameOf(uint32(lone)))
	if wide != one || wide > 2 {
		t.Fatalf("Simulate allocates %v for %d dependents and %v for one; want the same, at most 2",
			wide, off[widest+1]-off[widest], one)
	}
}

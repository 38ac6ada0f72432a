package depgraph

import (
	"encoding/json"
	"testing"

	"github.com/webdep/webdep/internal/obs"
)

// Property tests for the graph engine. These pin the invariants the
// what-if engine's correctness rests on: adding dependence can only grow
// blast radii (monotonicity), transitive closure is a fixed point
// (idempotence), and Simulate agrees byte-for-byte with the brute-force
// removal oracle on the corpus the graph was built from.

// cloneWithEdge returns a graph identical to g plus one extra provider
// edge from -> to, with the closure and the SPOF order recomputed the way
// the merge computes them. Stats and metrics are deliberately fresh: the
// clone exists only to compare impact numbers.
func cloneWithEdge(g *Graph, from, to uint32) *Graph {
	g2 := &Graph{
		countries:  g.countries,
		pos:        g.pos,
		names:      g.names,
		ids:        g.ids,
		home:       g.home,
		cols:       g.cols,
		layerTotal: g.layerTotal,
		m:          newMetrics(obs.NewRegistry()),
	}
	g2.edges = make([][]uint32, len(g.edges))
	for i := range g.edges {
		g2.edges[i] = append([]uint32(nil), g.edges[i]...)
	}
	g2.edges[from] = dedupSorted(append(g2.edges[from], to))
	g2.closure, _ = closureOf(g2.edges)
	g2.rankSPOFs()
	return g2
}

func TestBlastRadiusMonotonicity(t *testing.T) {
	corpus := worldCorpus(t, 17, 100, []string{"TH", "DE", "BR"})
	g := Build(corpus, &Options{Obs: obs.NewRegistry()})
	n := uint32(g.Nodes())
	if n < 8 {
		t.Fatalf("world too small for the property: %d nodes", n)
	}

	// A deterministic sample of (from, to) injections spread across the
	// symbol space, including pairs that are already closed (no-ops).
	var injections [][2]uint32
	for i := uint32(0); i < 12; i++ {
		from := (i * 7) % n
		to := (i*13 + 5) % n
		if from != to {
			injections = append(injections, [2]uint32{from, to})
		}
	}

	base := make([]*Impact, n)
	for p := uint32(0); p < n; p++ {
		imp, err := g.Simulate(g.NameOf(p))
		if err != nil {
			t.Fatalf("Simulate(%s): %v", g.NameOf(p), err)
		}
		base[p] = imp
	}

	radius := make([]int64, n)
	for _, s := range g.TopSPOFs(0) {
		radius[s.Sym] = s.Radius
	}

	for _, inj := range injections {
		g2 := cloneWithEdge(g, inj[0], inj[1])
		for _, s := range g2.TopSPOFs(0) {
			if s.Radius < radius[s.Sym] {
				t.Fatalf("edge %s->%s shrank %s's SPOF radius: %d < %d",
					g.NameOf(inj[0]), g.NameOf(inj[1]), s.Provider, s.Radius, radius[s.Sym])
			}
		}
		for p := uint32(0); p < n; p++ {
			imp, err := g2.Simulate(g2.NameOf(p))
			if err != nil {
				t.Fatalf("Simulate(%s): %v", g2.NameOf(p), err)
			}
			for ci := range imp.Countries {
				got, want := &imp.Countries[ci].Layers, &base[p].Countries[ci].Layers
				for l := 0; l < numGraphLayers; l++ {
					if got.at(l).Lost < want.at(l).Lost {
						t.Fatalf("edge %s->%s shrank %s's blast radius in %s layer %d: %d < %d",
							g.NameOf(inj[0]), g.NameOf(inj[1]), g.NameOf(p),
							imp.Countries[ci].Country, l, got.at(l).Lost, want.at(l).Lost)
					}
					if got.at(l).Measured != want.at(l).Measured {
						t.Fatalf("adding an edge changed the measured denominator")
					}
				}
			}
		}
	}
}

// closedEdges derives an explicit edge list from a closure: node p points
// at every member of its closure except itself. Re-closing that edge set
// must reproduce the closure exactly — transitive closure is idempotent.
func closedEdges(closure []bitset) [][]uint32 {
	edges := make([][]uint32, len(closure))
	for p := range closure {
		for _, q := range closure[p].members() {
			if q != uint32(p) {
				edges[p] = append(edges[p], q)
			}
		}
	}
	return edges
}

func TestClosureIdempotence(t *testing.T) {
	corpus := worldCorpus(t, 23, 80, []string{"US", "IR", "JP"})
	g := Build(corpus, &Options{Obs: obs.NewRegistry()})
	reclosed, _ := closureOf(closedEdges(g.closure))
	for p := range g.closure {
		if !reclosed[p].equal(g.closure[p]) {
			t.Fatalf("closure is not a fixed point at %s", g.NameOf(uint32(p)))
		}
	}

	// And on a hand-built cyclic graph: A->B->C->A plus a tail C->D.
	cyclic := [][]uint32{{1}, {2}, {0, 3}, nil}
	cl, sccs := closureOf(cyclic)
	if sccs != 2 {
		t.Fatalf("cycle condensation found %d SCCs, want 2", sccs)
	}
	for p := 0; p < 3; p++ {
		for q := uint32(0); q < 4; q++ {
			if !cl[p].has(q) {
				t.Fatalf("node %d closure missing %d", p, q)
			}
		}
	}
	if !cl[3].has(3) || cl[3].count() != 1 {
		t.Fatalf("sink node closure should be itself only")
	}
	re, _ := closureOf(closedEdges(cl))
	for p := range cl {
		if !re[p].equal(cl[p]) {
			t.Fatalf("cyclic closure not a fixed point at %d", p)
		}
	}
}

func TestSimulateMatchesBruteForce(t *testing.T) {
	corpus := worldCorpus(t, 7, 150, []string{"AU", "IN", "ZA", "CZ"})
	g := Build(corpus, &Options{Obs: obs.NewRegistry()})
	for p := uint32(0); p < uint32(g.Nodes()); p++ {
		name := g.NameOf(p)
		fast, err := g.Simulate(name)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", name, err)
		}
		slow, err := g.AuditSimulate(corpus, name)
		if err != nil {
			t.Fatalf("AuditSimulate(%s): %v", name, err)
		}
		fj, err := json.Marshal(fast)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(slow)
		if err != nil {
			t.Fatal(err)
		}
		if string(fj) != string(sj) {
			t.Fatalf("Simulate(%s) diverges from brute force:\n fast: %s\n slow: %s", name, fj, sj)
		}
	}
}

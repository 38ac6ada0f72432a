package depgraph

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// FuzzGraphBuild feeds arbitrary corpora — hostile provider names, empty
// countries, self-referential providers, duplicate rows — through the
// tally/merge path and checks the structural invariants that the rest of
// the engine assumes: no panics, no dangling symbol references, exact
// row/edge accounting, closure soundness, agreement with the
// corpus-backed Build path, and every provider's simulation equal to the
// audit oracle's brute-force rescore.
//
// Input format: newline-separated rows of up to five '|'-separated
// fields: country|host|dns|ca|hostCountry. Missing fields are empty.

type fuzzRow struct {
	country, host, dns, ca, hostCC string
}

func parseFuzzRows(data []byte) []fuzzRow {
	const maxRows = 512
	var rows []fuzzRow
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(rows) == maxRows {
			break
		}
		fields := bytes.SplitN(line, []byte("|"), 5)
		var r fuzzRow
		get := func(i int) string {
			if i < len(fields) {
				return string(fields[i])
			}
			return ""
		}
		r.country, r.host, r.dns, r.ca, r.hostCC = get(0), get(1), get(2), get(3), get(4)
		rows = append(rows, r)
	}
	return rows
}

func FuzzGraphBuild(f *testing.F) {
	f.Add([]byte("US|HostA|DNSX|CAZ|US\nUS|HostA|DNSY|CAZ|US\nDE|HostB|DNSX|CAZ|"))
	f.Add([]byte("|Self|Self|Self|\n|Self|Self|Self|"))                     // empty country, self-referential
	f.Add([]byte("US|a\x00b|\xff\xfe|{\"inj\":1}|ZZ"))                      // hostile names
	f.Add([]byte("AA|P|P|P|AA\nBB|P|Q|P|BB\nAA|Q|P|Q|CC"))                  // cycles across countries
	f.Add([]byte("\n\n\n"))                                                 // blank rows only
	f.Add([]byte("US|H||\nUS||D|\nUS|||C"))                                 // single-layer rows
	f.Add(bytes.Repeat([]byte("US|H|D|C|US\n"), 40))                        // heavy duplication
	f.Add([]byte("C1|h|d|c|X\nC1|h|d|c|Y\nC1|h|d|c|Y\nC2|h|d2|c2|Z|extra")) // home plurality + extra field

	f.Fuzz(func(t *testing.T, data []byte) {
		rows := parseFuzzRows(data)

		tallies := map[string]*Tally{}
		var order []*Tally
		lists := map[string]*dataset.CountryList{}
		for _, r := range rows {
			tl, ok := tallies[r.country]
			if !ok {
				tl = NewTally(r.country)
				tallies[r.country] = tl
				order = append(order, tl)
				lists[r.country] = &dataset.CountryList{Country: r.country, Epoch: "fuzz"}
			}
			w := dataset.Website{
				Domain:              "fuzz.test",
				Country:             r.country,
				HostProvider:        r.host,
				HostProviderCountry: r.hostCC,
				DNSProvider:         r.dns,
				CAOwner:             r.ca,
			}
			tl.Observe(&w)
			lists[r.country].Sites = append(lists[r.country].Sites, w)
		}

		g, err := FromTallies(order, &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("FromTallies: %v", err)
		}

		n := uint32(g.Nodes())

		// Symbol table is a bijection.
		seen := map[string]bool{}
		for s := uint32(0); s < n; s++ {
			name := g.NameOf(s)
			if seen[name] {
				t.Fatalf("duplicate node name %q", name)
			}
			seen[name] = true
			if got, ok := g.SymbolOf(name); !ok || got != s {
				t.Fatalf("SymbolOf(NameOf(%d)) = %d,%v", s, got, ok)
			}
		}

		// No dangling symbols anywhere; columns sorted count-descending;
		// per-(country,layer) counts conserved against an independent
		// recount.
		var siteEdges, colTotal [numGraphLayers]int64
		for ci, cc := range g.countries {
			for l := 0; l < numGraphLayers; l++ {
				col := g.cols[l][ci]
				var sum int64
				for k, s := range col.syms {
					if s >= n {
						t.Fatalf("%s layer %d: dangling sym %d (n=%d)", cc, l, s, n)
					}
					if col.counts[k] <= 0 {
						t.Fatalf("%s layer %d: non-positive count", cc, l)
					}
					if k > 0 && col.counts[k] > col.counts[k-1] {
						t.Fatalf("%s layer %d: counts not sorted descending", cc, l)
					}
					sum += col.counts[k]
				}
				if sum != col.total {
					t.Fatalf("%s layer %d: column total %d != sum %d", cc, l, col.total, sum)
				}
				recount := map[string]int64{}
				for _, r := range rows {
					if r.country != cc {
						continue
					}
					p := [numGraphLayers]string{r.host, r.dns, r.ca}[l]
					if p != "" {
						recount[p]++
					}
				}
				if len(recount) != len(col.syms) {
					t.Fatalf("%s layer %d: %d providers in column, recount says %d",
						cc, l, len(col.syms), len(recount))
				}
				for k, s := range col.syms {
					if recount[g.NameOf(s)] != col.counts[k] {
						t.Fatalf("%s layer %d: count drift for %q", cc, l, g.NameOf(s))
					}
				}
				siteEdges[l] += int64(len(col.syms))
				colTotal[l] += sum
			}
		}

		// Edge lists: endpoints in range, strictly ascending (sorted,
		// deduped), never self-referential.
		var provEdges int64
		for p := uint32(0); p < n; p++ {
			deps := g.edges[p]
			for i, q := range deps {
				if q >= n {
					t.Fatalf("edge %d->%d dangling (n=%d)", p, q, n)
				}
				if q == p {
					t.Fatalf("self-edge on %q", g.NameOf(p))
				}
				if i > 0 && deps[i-1] >= q {
					t.Fatalf("edges of %d not strictly ascending: %v", p, deps)
				}
			}
			provEdges += int64(len(deps))
		}

		// Closure soundness: contains self and every direct edge, and is
		// a fixed point under re-closing.
		for p := uint32(0); p < n; p++ {
			if !g.closure[p].has(p) {
				t.Fatalf("closure of %d missing itself", p)
			}
			for _, q := range g.edges[p] {
				if !g.closure[p].has(q) {
					t.Fatalf("closure of %d missing direct edge %d", p, q)
				}
			}
		}
		reclosed, _ := closureOf(g.edges)
		for p := range g.closure {
			if !reclosed[p].equal(g.closure[p]) {
				t.Fatalf("closure not reproducible at node %d", p)
			}
		}

		// Stats accounting is exact.
		st := g.Stats()
		if st.RowsScanned != int64(len(rows)) {
			t.Fatalf("RowsScanned = %d, want %d", st.RowsScanned, len(rows))
		}
		if st.Nodes != int64(n) {
			t.Fatalf("Nodes = %d, want %d", st.Nodes, n)
		}
		if st.SiteEdges != siteEdges[0]+siteEdges[1]+siteEdges[2] {
			t.Fatalf("SiteEdges = %d, want %d", st.SiteEdges, siteEdges[0]+siteEdges[1]+siteEdges[2])
		}
		if st.ProviderEdges != provEdges {
			t.Fatalf("ProviderEdges = %d, want %d", st.ProviderEdges, provEdges)
		}
		for l := 0; l < numGraphLayers; l++ {
			if g.layerTotal[l] != colTotal[l] {
				t.Fatalf("layerTotal[%d] = %d, want %d", l, g.layerTotal[l], colTotal[l])
			}
		}

		// The corpus-backed build path must agree with the tally path.
		corpus := dataset.NewCorpus("fuzz")
		for _, list := range lists {
			corpus.Add(list)
		}
		g2 := Build(corpus, &Options{Obs: obs.NewRegistry()})
		equalGraphs(t, g2, g)

		// The dense transitive scores are the distributions' scores, bit
		// for bit.
		for _, layer := range Layers() {
			for cc, got := range g.TransitiveScores(layer) {
				if want := g.TransitiveDistribution(cc, layer).Score(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%q %v: transitive score %v, distribution says %v", cc, layer, got, want)
				}
			}
		}

		// Simulate stays sane on whatever the graph contains — lost never
		// exceeds measured — and the audit oracle agrees with it, through
		// JSON, for every provider.
		for p := uint32(0); p < n; p++ {
			name := g.NameOf(p)
			imp, err := g.Simulate(name)
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			for l := 0; l < numGraphLayers; l++ {
				li := imp.Total.at(l)
				if li.Lost < 0 || li.Lost > li.Measured {
					t.Fatalf("impact out of range: %+v", li)
				}
			}
			audit, err := g.AuditSimulate(corpus, name)
			if err != nil {
				t.Fatalf("AuditSimulate: %v", err)
			}
			got, err := json.Marshal(imp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(audit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Simulate(%q) diverges from the audit:\n got: %s\nwant: %s", name, got, want)
			}
		}
	})
}

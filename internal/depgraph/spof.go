package depgraph

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/emd"
)

// SPOF ranks one provider by blast radius: the total number of measured
// site-layer bindings, corpus-wide, that are lost when it fails.
type SPOF struct {
	Provider string `json:"provider"`
	// Country is the provider's plurality observed home country, or ""
	// when the corpus never recorded one.
	Country string `json:"country"`
	// Sym is the provider's dense node id — part of the ranking's
	// deterministic tie-break, and stable for one graph build.
	Sym uint32 `json:"sym"`
	// Radius is the absolute blast radius in site-layer bindings.
	Radius int64 `json:"radius"`
	// Share is Radius over all measured bindings across modeled layers.
	Share float64 `json:"share"`
	// Hosting, DNS, and CA are the fractions of each layer's measured
	// bindings lost when this provider fails.
	Hosting float64 `json:"hosting"`
	DNS     float64 `json:"dns"`
	CA      float64 `json:"ca"`
}

// TopSPOFs returns the n providers with the largest blast radii,
// corpus-wide. Equal radii order deterministically by provider symbol,
// then name — never by map or goroutine scheduling order — so report
// output is stable across worker counts. n <= 0 or n beyond the node
// count returns every provider. The order is built with the graph
// (rankSPOFs), so a call copies the first n entries and nothing else; the
// slice is the caller's.
func (g *Graph) TopSPOFs(n int) []SPOF {
	if n <= 0 || n > len(g.spofs) {
		n = len(g.spofs)
	}
	out := make([]SPOF, n)
	copy(out, g.spofs)
	return out
}

// blastTable is every provider's blast radius broken down by (country,
// layer) column, built with the SPOF order. Row s, provider s's losses,
// is entries off[s] to off[s+1] of col and lost: the columns where its
// failure loses a binding — col = country*numGraphLayers + layer, in
// ascending order — and how many it loses there. A zero column is absent,
// so a row has at most numGraphLayers entries per country.
type blastTable struct {
	off  []int
	col  []uint32
	lost []int64
}

// row returns provider s's entries.
func (b *blastTable) row(s uint32) ([]uint32, []int64) {
	lo, hi := b.off[s], b.off[s+1]
	return b.col[lo:hi], b.lost[lo:hi]
}

// rankSPOFs builds the blast table from the site columns and the closure,
// and stores the providers in TopSPOFs order (rankOrder), each radius
// summed from the provider's row. A blast radius is a property of the
// immutable graph, so the merge calls this once, after the closure.
//
// Row q is the sum of its dependents' postings: when q fails, every
// provider p whose closure holds q loses all of its direct bindings. The
// postings (p's direct bindings per column) are the site columns
// transposed, and the dependents lists are the closure inverted, both in
// ascending order, so a provider with no dependent but itself copies its
// posting, and any other sums into a dense column vector read back in
// column order through a bitset of the columns it touched.
func (g *Graph) rankSPOFs() {
	nodes, ncols := len(g.names), len(g.countries)*numGraphLayers
	postCol, postN, postOff := g.postings()
	depOff, deps := dependents(g.closure)

	// A row has at most one entry per column and per posting entry of its
	// dependents, so the table never outgrows this.
	size := 0
	for q := 0; q < nodes; q++ {
		n := 0
		for _, p := range deps[depOff[q]:depOff[q+1]] {
			n += postOff[p+1] - postOff[p]
		}
		size += min(n, ncols)
	}
	t := blastTable{
		off:  make([]int, nodes+1),
		col:  make([]uint32, 0, size),
		lost: make([]int64, 0, size),
	}
	acc := make([]int64, ncols)
	touched := newBitset(ncols)
	radius := make([][numGraphLayers]int64, nodes)
	for q := range radius {
		if d := deps[depOff[q]:depOff[q+1]]; len(d) == 1 {
			lo, hi := postOff[q], postOff[q+1]
			t.col = append(t.col, postCol[lo:hi]...)
			t.lost = append(t.lost, postN[lo:hi]...)
		} else {
			for _, p := range d {
				for j := postOff[p]; j < postOff[p+1]; j++ {
					acc[postCol[j]] += postN[j]
					touched.set(postCol[j])
				}
			}
			for wi, w := range touched {
				for ; w != 0; w &= w - 1 {
					c := wi*64 + bits.TrailingZeros64(w)
					t.col = append(t.col, uint32(c))
					t.lost = append(t.lost, acc[c])
					acc[c] = 0
				}
				touched[wi] = 0
			}
		}
		t.off[q+1] = len(t.col)
		cols, lost := t.row(uint32(q))
		for k, c := range cols {
			radius[q][c%numGraphLayers] += lost[k]
		}
	}
	g.blast = t

	order := rankOrder(radius)
	grand := g.layerTotal[0] + g.layerTotal[1] + g.layerTotal[2]
	g.spofs = make([]SPOF, nodes)
	for i, o := range order {
		q, r := o.q, radius[o.q]
		g.spofs[i] = SPOF{
			Provider: g.names[q],
			Country:  g.home[q],
			Sym:      q,
			Radius:   o.r,
			Share:    frac(o.r, grand),
			Hosting:  frac(r[0], g.layerTotal[0]),
			DNS:      frac(r[1], g.layerTotal[1]),
			CA:       frac(r[2], g.layerTotal[2]),
		}
	}
}

// postings transposes the site columns: provider p's direct bindings are
// entries off[p] to off[p+1] of col and n, by column ascending.
func (g *Graph) postings() (col []uint32, n []int64, off []int) {
	off = make([]int, len(g.names)+1)
	for l := range g.cols {
		for i := range g.cols[l] {
			for _, s := range g.cols[l][i].syms {
				off[s+1]++
			}
		}
	}
	for s := range g.names {
		off[s+1] += off[s]
	}
	col, n = make([]uint32, off[len(g.names)]), make([]int64, off[len(g.names)])
	// off[s] is provider s's fill cursor until every column is placed;
	// then off[s] has reached the old off[s+1], so a shift restores it.
	for i := range g.countries {
		for l := range g.cols {
			sc := &g.cols[l][i]
			c := uint32(i*numGraphLayers + l)
			for k, s := range sc.syms {
				col[off[s]], n[off[s]] = c, sc.counts[k]
				off[s]++
			}
		}
	}
	copy(off[1:], off)
	off[0] = 0
	return col, n, off
}

// dependents inverts a closure: the providers whose closure holds q are
// entries off[q] to off[q+1] of deps, in ascending order. Every provider is
// its own dependent.
func dependents(closure []bitset) (off []int, deps []uint32) {
	n := len(closure)
	off = make([]int, n+1)
	// One pass over the bitsets lists every closure's members, p's ending
	// at ends[p], and counts each member's dependents.
	var members []uint32
	ends := make([]int, n)
	for p := range closure {
		for wi, w := range closure[p] {
			for ; w != 0; w &= w - 1 {
				q := wi*64 + bits.TrailingZeros64(w)
				members = append(members, uint32(q))
				off[q+1]++
			}
		}
		ends[p] = len(members)
	}
	for q := 0; q < n; q++ {
		off[q+1] += off[q]
	}
	deps = make([]uint32, len(members))
	// As in postings, off[q] is q's fill cursor, then shifted back.
	j := 0
	for p, end := range ends {
		for ; j < end; j++ {
			q := members[j]
			deps[off[q]] = uint32(p)
			off[q]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	return off, deps
}

// ranked is one provider's place in the SPOF order: its radius and symbol.
type ranked struct {
	r int64
	q uint32
}

// rankOrder returns the providers by total radius descending, then symbol
// ascending: an LSD radix sort on the radius bytes, up to the largest
// radius's top byte. The input is in symbol order and every pass is
// stable, so equal radii keep their symbols ascending. Symbols are unique,
// so this is a total order and a name never breaks a tie. Radii are sums
// of counts, never negative.
func rankOrder(radius [][numGraphLayers]int64) []ranked {
	order := make([]ranked, len(radius))
	var most int64
	for q, r := range radius {
		order[q] = ranked{r[0] + r[1] + r[2], uint32(q)}
		most = max(most, order[q].r)
	}
	tmp := make([]ranked, len(order))
	for shift := 0; shift < 64 && most>>shift != 0; shift += 8 {
		// A digit is 255 minus the radius byte, so larger radii go first.
		var start [257]int
		for _, o := range order {
			start[256-int(o.r>>shift&0xff)]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, o := range order {
			d := 255 - int(o.r>>shift&0xff)
			tmp[start[d]] = o
			start[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// TransitiveDistribution returns a country's dependence distribution at
// a layer with transitivity folded in: every measured site counts toward
// each provider in its direct provider's closure, so a provider's mass
// is "sites that stop working at this layer if it fails". The result is
// a frozen core.Distribution, ranked as the scoring index ranks a direct
// one, making transitive scores directly comparable to the direct scores —
// with an empty provider edge set the two are bit-identical. It is the
// name-keyed reference TransitiveScores is held to. Layers the graph does
// not model (TLD) and unknown countries return nil.
func (g *Graph) TransitiveDistribution(cc string, layer countries.Layer) *core.Distribution {
	l := graphLayerIndex(layer)
	if l < 0 {
		return nil
	}
	i, ok := g.pos[cc]
	if !ok {
		return nil
	}
	col := &g.cols[l][i]
	counts := make(map[string]float64)
	for k, s := range col.syms {
		n := float64(col.counts[k])
		for _, q := range g.closure[s].members() {
			counts[g.names[q]] += n
		}
	}
	names := make([]string, 0, len(counts))
	for p := range counts {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	ranked := make([]float64, len(names))
	for i, p := range names {
		ranked[i] = counts[p]
	}
	return core.FromSorted(names, ranked)
}

// TransitiveScores returns every country's transitive dependence score
// at a layer, keyed by country: EachTransitiveScore's entries as a map.
// Layers the graph does not model return nil.
func (g *Graph) TransitiveScores(layer countries.Layer) map[string]float64 {
	if graphLayerIndex(layer) < 0 {
		return nil
	}
	out := make(map[string]float64, len(g.countries))
	g.EachTransitiveScore(layer, func(cc string, score float64) { out[cc] = score })
	return out
}

// EachTransitiveScore calls fn with every country's transitive dependence
// score at a layer, in sorted country order; for a layer the graph does
// not model it calls fn for no country. Each country's masses accumulate
// in one dense per-symbol vector; the score reads only the nonzero masses
// sorted nonincreasing, and the sums are exact integer sums, so every
// score is bit-identical to TransitiveDistribution's.
func (g *Graph) EachTransitiveScore(layer countries.Layer, fn func(country string, score float64)) {
	l := graphLayerIndex(layer)
	if l < 0 {
		return
	}
	mass := make([]float64, len(g.names))
	var held []uint32 // symbols with nonzero mass
	var sorted []float64
	for i, cc := range g.countries {
		col := &g.cols[l][i]
		held = held[:0]
		for k, s := range col.syms {
			n := float64(col.counts[k])
			for wi, w := range g.closure[s] {
				for ; w != 0; w &= w - 1 {
					q := wi*64 + bits.TrailingZeros64(w)
					if mass[q] == 0 {
						held = append(held, uint32(q))
					}
					mass[q] += n
				}
			}
		}
		sorted = sorted[:0]
		for _, q := range held {
			sorted = append(sorted, mass[q])
			mass[q] = 0
		}
		slices.SortFunc(sorted, func(a, b float64) int { return cmp.Compare(b, a) })
		fn(cc, emd.Centralization(sorted))
	}
}

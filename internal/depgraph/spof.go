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
// count returns every provider.
func (g *Graph) TopSPOFs(n int) []SPOF {
	nodes := len(g.names)
	// weight[l][p]: provider p's direct site bindings at layer l.
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
	// radius[l][q]: bindings lost at layer l when q fails — every
	// provider p with q in its closure contributes its direct weight.
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
// at a layer. Layers the graph does not model return nil. Each country's
// masses accumulate in one dense per-symbol vector; the score reads only
// the nonzero masses sorted nonincreasing, and the sums are exact integer
// sums, so every score is bit-identical to TransitiveDistribution's.
func (g *Graph) TransitiveScores(layer countries.Layer) map[string]float64 {
	l := graphLayerIndex(layer)
	if l < 0 {
		return nil
	}
	out := make(map[string]float64, len(g.countries))
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
		out[cc] = emd.Centralization(sorted)
	}
	return out
}

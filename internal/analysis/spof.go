package analysis

import (
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/depgraph"
)

// SortedTransitiveScores returns per-country transitive centralization
// for a modeled layer, most centralized first — the transitive
// counterpart of SortedScores, on the same core.Distribution scoring
// surface. Layers the graph does not model (TLD) return nil.
func SortedTransitiveScores(g *depgraph.Graph, layer countries.Layer) []CountryScore {
	var out []CountryScore
	g.EachTransitiveScore(layer, func(cc string, v float64) {
		out = append(out, countryScore(cc, v))
	})
	sortCountryValues(out)
	return out
}

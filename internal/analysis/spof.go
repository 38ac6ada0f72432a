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
	vals := g.TransitiveScores(layer)
	if vals == nil {
		return nil
	}
	return sortCountryValues(vals)
}

package depgraph

import (
	"fmt"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// LayerImpact is one layer's blast-radius accounting for one scope:
// how many site-layer bindings were measured, and how many are lost
// when the simulated provider fails. Counts are exact integers so two
// computations of the same failure compare byte-identically under JSON.
type LayerImpact struct {
	Measured int64 `json:"measured"`
	Lost     int64 `json:"lost"`
}

// Fraction returns Lost/Measured, or 0 when nothing was measured.
func (li LayerImpact) Fraction() float64 {
	if li.Measured == 0 {
		return 0
	}
	return float64(li.Lost) / float64(li.Measured)
}

// LayerImpacts holds one LayerImpact per modeled layer.
type LayerImpacts struct {
	Hosting LayerImpact `json:"hosting"`
	DNS     LayerImpact `json:"dns"`
	CA      LayerImpact `json:"ca"`
}

// at returns the addressable entry for a graph layer index.
func (li *LayerImpacts) at(l int) *LayerImpact {
	switch l {
	case 0:
		return &li.Hosting
	case 1:
		return &li.DNS
	default:
		return &li.CA
	}
}

// CountryImpact is one country's share of a simulated failure.
type CountryImpact struct {
	Country string       `json:"country"`
	Layers  LayerImpacts `json:"layers"`
}

// Impact is the full result of one what-if simulation: per-country
// losses in sorted country order plus the corpus-wide totals.
type Impact struct {
	Provider  string          `json:"provider"`
	Countries []CountryImpact `json:"countries"`
	Total     LayerImpacts    `json:"total"`
}

// Simulate answers "provider fails — what breaks, where?": for every
// country and layer, the number of measured site-layer bindings whose
// provider transitively depends on the failed one (including the failed
// provider itself). The measured counts are the site columns' totals and
// the losses are the provider's row of the blast table, built with the
// SPOF order, so a simulation costs one pass over the countries and at
// most one entry per (country, layer) whatever the number of dependents.
// It only reads the immutable graph, so concurrent simulations are safe.
func (g *Graph) Simulate(provider string) (*Impact, error) {
	x, ok := g.ids[provider]
	if !ok {
		return nil, fmt.Errorf("depgraph: unknown provider %q", provider)
	}
	sp := obs.StartSpan(g.m.simulateMS)
	imp := &Impact{Provider: provider, Countries: make([]CountryImpact, len(g.countries))}
	for i, cc := range g.countries {
		ci := &imp.Countries[i]
		ci.Country = cc
		for l := 0; l < numGraphLayers; l++ {
			ci.Layers.at(l).Measured = g.cols[l][i].total
		}
	}
	for l := 0; l < numGraphLayers; l++ {
		imp.Total.at(l).Measured = g.layerTotal[l]
	}
	cols, lost := g.blast.row(x)
	for k, c := range cols {
		l := int(c % numGraphLayers)
		imp.Countries[c/numGraphLayers].Layers.at(l).Lost = lost[k]
		imp.Total.at(l).Lost += lost[k]
	}
	sp.End()
	g.stats.Simulations.Add(1)
	g.m.sims.Inc()
	return imp, nil
}

// AuditSimulate recomputes a failure's impact by brute force: a full
// row scan of the corpus, counting each site-layer binding as lost iff
// its provider's closure contains the failed provider. Given the corpus
// the graph was built from, the result must be byte-identical to
// Simulate — the equivalence property tests and the golden SPOF suite
// hold the two paths to exactly that. Rows naming providers absent from
// the graph (a corpus mutated since the build) count as measured but
// never lost.
func (g *Graph) AuditSimulate(c *dataset.Corpus, provider string) (*Impact, error) {
	x, ok := g.ids[provider]
	if !ok {
		return nil, fmt.Errorf("depgraph: unknown provider %q", provider)
	}
	imp := &Impact{Provider: provider}
	for _, cc := range c.Countries() {
		list := c.Lists[cc]
		ci := CountryImpact{Country: cc}
		for j := range list.Sites {
			g.auditRow(&list.Sites[j], x, &ci.Layers)
		}
		for l := 0; l < numGraphLayers; l++ {
			tl := imp.Total.at(l)
			tl.Measured += ci.Layers.at(l).Measured
			tl.Lost += ci.Layers.at(l).Lost
		}
		imp.Countries = append(imp.Countries, ci)
	}
	return imp, nil
}

// auditRow folds one website row into a brute-force impact tally.
func (g *Graph) auditRow(w *dataset.Website, x uint32, li *LayerImpacts) {
	for l, layer := range graphLayers {
		p, _ := w.ProviderOf(layer)
		if p == "" {
			continue
		}
		e := li.at(l)
		e.Measured++
		if s, ok := g.ids[p]; ok && g.closure[s].has(x) {
			e.Lost++
		}
	}
}

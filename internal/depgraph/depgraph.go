// Package depgraph models web infrastructure dependence as an explicit
// provider graph and answers the question the per-layer scores cannot:
// "provider X fails — what breaks, where?"
//
// The paper's dependence metrics treat hosting, DNS, and CA independently,
// but real dependence is transitive: a site depends on its host, the host
// on its DNS provider, that provider on its CA. depgraph builds the graph
// from data the pipeline already collects — no new probes:
//
//   - Nodes are providers observed in any of the hosting, DNS, or CA
//     columns of the corpus, interned to dense uint32 symbols in
//     deterministic (country, layer, rank) order, exactly like the
//     columnar scoring index. The TLD layer is excluded: a TLD is a
//     namespace, not an operator that can fail.
//   - Site edges are the per-(country, layer) provider count columns —
//     how many of a country's measured sites bind to each provider at
//     each layer.
//   - Provider→provider edges are inferred from each provider's own
//     measured infrastructure: across the sites a provider hosts, the
//     plurality DNS provider and plurality CA owner it is observed
//     behind become its dependencies (and the plurality CA owner for
//     the sites whose DNS it serves). Ties break by (count descending,
//     name ascending); a provider is never its own dependency.
//
// On top of the graph sit the transitive closure (computed once per
// build via SCC condensation, cycle-safe), every provider's blast radius
// per (country, layer) and the ranked single-point-of-failure order
// (computed together once per build, after the closure), the what-if
// engine (Simulate reads one provider's blast radii; AuditSimulate
// recomputes them by brute force), the SPOF tables TopSPOFs hands out,
// and per-country transitive dependence distributions that reuse
// core.Distribution so transitive scores are directly comparable to the
// paper's direct scores. With no provider edges the transitive
// distribution IS the direct distribution, bit for bit.
//
// A Graph is immutable after construction and safe for concurrent use;
// only its stats counters mutate (atomically). A caller that needs the
// graph more than once keeps the pointer; nothing caches it.
package depgraph

import (
	"sync/atomic"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/obs"
)

// numGraphLayers counts the layers the graph models: hosting, DNS, CA.
const numGraphLayers = 3

// graphLayers maps the graph's dense layer indices (0..2) to the corpus
// layers. The values are the consecutive iota constants Hosting, DNS, CA,
// so graph layer l == countries.Layer(l) for every modeled layer.
var graphLayers = [numGraphLayers]countries.Layer{countries.Hosting, countries.DNS, countries.CA}

// graphLayerIndex returns the graph's dense index for a corpus layer, or
// -1 when the layer is not modeled (TLD).
func graphLayerIndex(layer countries.Layer) int {
	if int(layer) < numGraphLayers {
		return int(layer)
	}
	return -1
}

// siteCol is one (country, layer) column of site edges: interned provider
// symbols with their site counts, sorted (count descending, name
// ascending) — the Distribution.Ranked ordering.
type siteCol struct {
	syms   []uint32
	counts []int64 // nonincreasing, aligned with syms
	total  int64
}

// Graph is the immutable provider dependency graph built from one corpus
// (or store) snapshot. All fields are written once during construction
// and only read afterwards; Stats counters are atomic, so a Graph is safe
// for concurrent Simulate/TopSPOFs/TransitiveDistribution calls.
type Graph struct {
	countries []string // sorted country codes, aligned with cols
	pos       map[string]int

	names []string          // sym -> provider name
	ids   map[string]uint32 // provider name -> sym
	home  []string          // sym -> plurality observed provider country ("" unknown)

	edges   [][]uint32 // sym -> sorted, deduplicated direct dependencies
	closure []bitset   // sym -> reachable set including self (shared per SCC)
	spofs   []SPOF     // every provider in TopSPOFs order, built with the closure
	blast   blastTable // every provider's loss per (country, layer), built with spofs

	cols       [numGraphLayers][]siteCol // per layer, aligned with countries
	layerTotal [numGraphLayers]int64     // corpus-wide measured bindings per layer

	stats Stats
	m     *metrics
}

// Stats is the graph's own atomic accounting, dual-recorded against the
// depgraph.* obs instruments so either surface can audit the other. The
// build fields are written once by the merge; Simulations advances on
// every Simulate call.
type Stats struct {
	RowsScanned   atomic.Int64
	Nodes         atomic.Int64
	SiteEdges     atomic.Int64
	ProviderEdges atomic.Int64
	ClosureSCCs   atomic.Int64
	Simulations   atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	RowsScanned   int64
	Nodes         int64
	SiteEdges     int64
	ProviderEdges int64
	ClosureSCCs   int64
	Simulations   int64
}

// Stats returns a snapshot of the graph's accounting.
func (g *Graph) Stats() StatsSnapshot {
	return StatsSnapshot{
		RowsScanned:   g.stats.RowsScanned.Load(),
		Nodes:         g.stats.Nodes.Load(),
		SiteEdges:     g.stats.SiteEdges.Load(),
		ProviderEdges: g.stats.ProviderEdges.Load(),
		ClosureSCCs:   g.stats.ClosureSCCs.Load(),
		Simulations:   g.stats.Simulations.Load(),
	}
}

// metrics hoists the depgraph.* instruments out of the hot paths, one
// lookup per registry instead of per call.
type metrics struct {
	builds     *obs.Counter
	rows       *obs.Counter
	nodes      *obs.Counter
	siteEdges  *obs.Counter
	provEdges  *obs.Counter
	sccs       *obs.Counter
	sims       *obs.Counter
	buildMS    *obs.Histogram
	simulateMS *obs.Histogram
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		r = obs.Default()
	}
	return &metrics{
		builds:     r.Counter("depgraph.builds"),
		rows:       r.Counter("depgraph.rows_scanned"),
		nodes:      r.Counter("depgraph.nodes"),
		siteEdges:  r.Counter("depgraph.site_edges"),
		provEdges:  r.Counter("depgraph.provider_edges"),
		sccs:       r.Counter("depgraph.closure_sccs"),
		sims:       r.Counter("depgraph.simulations"),
		buildMS:    r.Timing("depgraph.build_ms"),
		simulateMS: r.Timing("depgraph.simulate_ms"),
	}
}

// Options configures a graph build. The zero value (and nil) means the
// process-default obs registry and one worker per core.
type Options struct {
	// Workers bounds build parallelism; 0 means GOMAXPROCS.
	Workers int
	// Obs receives the depgraph.* instruments; nil means obs.Default().
	Obs *obs.Registry
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// Layers returns the corpus layers the graph models, in dense-index
// order: Hosting, DNS, CA. TLD is a namespace, not an operator, and is
// intentionally absent.
func Layers() []countries.Layer { return graphLayers[:] }

// Nodes returns the number of providers in the graph.
func (g *Graph) Nodes() int { return len(g.names) }

// Providers returns every provider name in symbol order.
func (g *Graph) Providers() []string {
	return append([]string(nil), g.names...)
}

// Countries returns the graph's country codes in sorted order.
func (g *Graph) Countries() []string {
	return append([]string(nil), g.countries...)
}

// SymbolOf returns the dense node id for a provider name.
func (g *Graph) SymbolOf(name string) (uint32, bool) {
	s, ok := g.ids[name]
	return s, ok
}

// NameOf returns the provider name behind a symbol.
func (g *Graph) NameOf(sym uint32) string { return g.names[sym] }

// HomeOf returns the provider's plurality observed country, or "" when
// the corpus never recorded one.
func (g *Graph) HomeOf(sym uint32) string { return g.home[sym] }

// DependsOn returns a provider's direct dependencies in symbol order.
// Unknown providers return nil.
func (g *Graph) DependsOn(provider string) []string {
	s, ok := g.ids[provider]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.edges[s]))
	for _, q := range g.edges[s] {
		out = append(out, g.names[q])
	}
	return out
}

package depgraph

import (
	"context"
	"fmt"
	"sort"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
)

// This file is the graph construction path: a one-pass parallel
// extraction into per-country tallies (the same shape as the columnar
// scoring index and the streamed CountryTally), followed by a
// deterministic single-threaded merge. Because a Tally is a pure fold
// over website rows, the same rows produce the same graph whether they
// came from in-memory lists, a streamed store shard, or any worker
// count — the permutation-invariance property tests pin this down.

// pairKind enumerates the observed provider co-occurrence kinds the
// edge inference draws from.
const (
	pairHostDNS = iota // site's host provider observed with its DNS provider
	pairHostCA         // site's host provider observed with its CA owner
	pairDNSCA          // site's DNS provider observed with its CA owner
	numPairKinds
)

// pair is an ordered provider co-occurrence key (or a provider/country
// key in the home tally).
type pair struct{ from, to string }

// Tally accumulates one country's graph evidence: per-layer provider
// site counts, provider co-occurrence counts, and provider-country
// observations. Observe is the row-level unit of the in-memory build,
// ObserveBlock the symbol-ID unit of the store-streamed one; a Tally is
// not safe for concurrent use.
type Tally struct {
	country string
	rows    int64
	counts  [numGraphLayers]map[string]int64
	pairs   [numPairKinds]map[pair]int64
	homes   map[pair]int64 // {provider, observed country} -> observations
	ids     *idTally       // rows observed as symbol IDs, not yet folded into the maps
}

// NewTally returns an empty tally for one country.
func NewTally(country string) *Tally {
	t := &Tally{country: country, homes: make(map[pair]int64)}
	for l := range t.counts {
		t.counts[l] = make(map[string]int64)
	}
	for k := range t.pairs {
		t.pairs[k] = make(map[pair]int64)
	}
	return t
}

// Observe folds one website row into the tally. Empty provider fields
// are skipped per layer — the same rule the scoring extraction applies —
// so a layer's measured total in the graph equals the scoring index's
// distribution mass for that (country, layer).
func (t *Tally) Observe(w *dataset.Website) {
	t.rows++
	host, dns, ca := w.HostProvider, w.DNSProvider, w.CAOwner
	if host != "" {
		t.counts[0][host]++
		if w.HostProviderCountry != "" {
			t.homes[pair{host, w.HostProviderCountry}]++
		}
	}
	if dns != "" {
		t.counts[1][dns]++
		if w.DNSProviderCountry != "" {
			t.homes[pair{dns, w.DNSProviderCountry}]++
		}
	}
	if ca != "" {
		t.counts[2][ca]++
		if w.CAOwnerCountry != "" {
			t.homes[pair{ca, w.CAOwnerCountry}]++
		}
	}
	if host != "" && dns != "" {
		t.pairs[pairHostDNS][pair{host, dns}]++
	}
	if host != "" && ca != "" {
		t.pairs[pairHostCA][pair{host, ca}]++
	}
	if dns != "" && ca != "" {
		t.pairs[pairDNSCA][pair{dns, ca}]++
	}
}

// graphSymbols maps each graph layer to its provider and provider-country
// columns in a dataset.SymbolBlock.
var graphSymbols = [numGraphLayers]struct{ provider, country dataset.SymbolColumn }{
	{dataset.SymHostProvider, dataset.SymHostProviderCountry},
	{dataset.SymDNSProvider, dataset.SymDNSProviderCountry},
	{dataset.SymCAOwner, dataset.SymCAOwnerCountry},
}

// pairLayers names the two graph layers each co-occurrence kind joins.
var pairLayers = [numPairKinds]struct{ from, to int }{
	pairHostDNS: {0, 1},
	pairHostCA:  {0, 2},
	pairDNSCA:   {1, 2},
}

// idTally is a Tally's accumulator for rows observed as symbol IDs: site
// counts in dense per-symbol slices, co-occurrences and homes keyed by the
// two IDs packed into a uint64 (first<<32 | second), all folded into the
// name-keyed maps once the stream is done.
type idTally struct {
	names   []string // the stream's table as of the last block
	scanned int      // names already checked for empty
	empty   uint32   // ID of "", the unmeasured provider or country
	counts  [numGraphLayers][]int64
	pairs   [numPairKinds]map[uint64]int64
	homes   map[uint64]int64
}

func pack(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// ObserveBlock folds a block of interned rows into the tally. It applies
// Observe's rules — an empty provider is not counted, a home needs a
// provider and a country, a pair needs both ends — on IDs instead of
// strings; TestObserveBlockMatchesObserve holds the two equal. Every block
// given to one tally must come from the same stream.
func (t *Tally) ObserveBlock(b *dataset.SymbolBlock) {
	if t.ids == nil {
		t.ids = &idTally{empty: dataset.NoSymbol, homes: make(map[uint64]int64)}
		for k := range t.ids.pairs {
			t.ids.pairs[k] = make(map[uint64]int64)
		}
	}
	ids := t.ids
	ids.names = b.Names
	for ; ids.scanned < len(b.Names); ids.scanned++ {
		if b.Names[ids.scanned] == "" {
			ids.empty = uint32(ids.scanned)
		}
	}
	t.rows += int64(b.Rows())
	for l := range ids.counts {
		counts := ids.counts[l]
		if len(counts) < len(b.Names) {
			counts = append(counts, make([]int64, len(b.Names)-len(counts))...)
			ids.counts[l] = counts
		}
		homes := b.Cols[graphSymbols[l].country]
		for i, p := range b.Cols[graphSymbols[l].provider] {
			if p == ids.empty {
				continue
			}
			counts[p]++
			if homes[i] != ids.empty {
				ids.homes[pack(p, homes[i])]++
			}
		}
	}
	for k, kind := range pairLayers {
		pairs, to := ids.pairs[k], b.Cols[graphSymbols[kind.to].provider]
		for i, from := range b.Cols[graphSymbols[kind.from].provider] {
			if from != ids.empty && to[i] != ids.empty {
				pairs[pack(from, to[i])]++
			}
		}
	}
}

// fold moves the ID-keyed evidence into the name-keyed maps Observe
// writes, after which the tally no longer depends on the stream's table.
func (t *Tally) fold() {
	ids := t.ids
	if ids == nil {
		return
	}
	t.ids = nil
	name := func(key uint64) pair { return pair{ids.names[key>>32], ids.names[uint32(key)]} }
	for l := range ids.counts {
		for id, n := range ids.counts[l] {
			if n > 0 {
				t.counts[l][ids.names[id]] += n
			}
		}
	}
	for k := range ids.pairs {
		for key, n := range ids.pairs[k] {
			t.pairs[k][name(key)] += n
		}
	}
	for key, n := range ids.homes {
		t.homes[name(key)] += n
	}
}

// Build constructs the graph from an in-memory corpus in one parallel
// pass over the rows (one tally per country) plus a deterministic merge.
func Build(c *dataset.Corpus, opts *Options) *Graph {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	sp := obs.StartSpan(m.buildMS)
	ccs := c.Countries()
	tallies, err := parallel.Map(context.Background(), opts.Workers, len(ccs),
		func(_ context.Context, i int) (*Tally, error) {
			t := NewTally(ccs[i])
			list := c.Lists[ccs[i]]
			for j := range list.Sites {
				t.Observe(&list.Sites[j])
			}
			return t, nil
		})
	if err != nil {
		// The extraction is infallible and the context is never cancelled;
		// mirror the scoring index's loud-failure stance rather than
		// returning a zero graph.
		panic(fmt.Sprintf("depgraph: corpus extraction failed: %v", err))
	}
	g, err := merge(tallies, m)
	if err != nil {
		// A corpus keys lists by country, so duplicate tallies are
		// impossible here.
		panic(fmt.Sprintf("depgraph: corpus merge failed: %v", err))
	}
	sp.End()
	return g
}

// FromStore constructs the graph by streaming every shard of an on-disk
// corpus store in symbol-ID form — the tallies and the graph itself are
// the only resident state, never the corpus or a row of it. The result is
// bit-identical to Build over the materialized rows.
func FromStore(st *corpusstore.Store, opts *Options) (*Graph, error) {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	sp := obs.StartSpan(m.buildMS)
	tallies, err := scanTallies(st, opts.Workers, nil)
	if err != nil {
		return nil, err
	}
	return mergeTimed(tallies, m, sp)
}

// ScanStore is FromStore and Store.Score in one decode: every block feeds
// the country's scoring tally and its graph tally, so a caller that wants
// both surfaces — the serving daemon, score -spof — reads the store once.
// The two serial tails, the graph merge and the scoring index build, read
// disjoint tallies and run side by side when opts.Workers allows. Both
// results are bit-identical to the separate calls at any worker count.
func ScanStore(st *corpusstore.Store, opts *Options) (*dataset.ScoreSet, *Graph, error) {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	sp := obs.StartSpan(m.buildMS)
	scores := make([]*dataset.CountryTally, len(st.Countries()))
	tallies, err := scanTallies(st, opts.Workers, scores)
	if err != nil {
		return nil, nil, err
	}
	var (
		ss *dataset.ScoreSet
		g  *Graph
	)
	err = parallel.ForEachIndexed(context.Background(), opts.Workers, 2, func(_ context.Context, i int) (err error) {
		if i == 0 {
			g, err = mergeTimed(tallies, m, sp)
		} else {
			ss, err = dataset.BuildScoreSet(scores)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return ss, g, nil
}

// scanTallies fills one graph tally per country, aligned with
// st.Countries(), from one Store.Scan. A non-nil scores is filled the same
// way with scoring tallies fed from the same blocks.
func scanTallies(st *corpusstore.Store, workers int, scores []*dataset.CountryTally) ([]*Tally, error) {
	tallies := make([]*Tally, len(st.Countries()))
	err := st.Scan(workers, func(i int, cc string) func(*dataset.SymbolBlock) {
		t := NewTally(cc)
		tallies[i] = t
		if scores == nil {
			return t.ObserveBlock
		}
		s := dataset.NewCountryTally(cc)
		scores[i] = s
		return func(b *dataset.SymbolBlock) {
			s.ObserveBlock(b)
			t.ObserveBlock(b)
		}
	})
	if err != nil {
		return nil, err
	}
	return tallies, nil
}

// FromTallies merges independently accumulated per-country tallies into
// a graph — the entry point for callers that already stream rows
// themselves. Tallies may arrive in any order; countries must be unique.
// Tallies that observed symbol blocks are folded to names here, so they
// must be done observing.
func FromTallies(tallies []*Tally, opts *Options) (*Graph, error) {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	return mergeTimed(tallies, m, obs.StartSpan(m.buildMS))
}

// mergeTimed is merge closing the build span its caller opened, on success.
func mergeTimed(tallies []*Tally, m *metrics, sp obs.Span) (*Graph, error) {
	g, err := merge(tallies, m)
	if err != nil {
		return nil, err
	}
	sp.End()
	return g, nil
}

// best tracks a plurality winner under the total order (count
// descending, name ascending), which has a unique maximum — so the
// winner is independent of map iteration order.
type best struct {
	name string
	n    int64
	ok   bool
}

func (b *best) offer(name string, n int64) {
	if !b.ok || n > b.n || (n == b.n && name < b.name) {
		b.name, b.n, b.ok = name, n, true
	}
}

// merge folds sorted per-country tallies into the immutable graph:
// symbols interned in (country, layer, rank) order, site-edge columns,
// plurality home countries, inferred provider edges, and the transitive
// closure. Everything downstream of the sort is single-threaded and
// deterministic.
func merge(tallies []*Tally, m *metrics) (*Graph, error) {
	ts := append([]*Tally(nil), tallies...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].country < ts[j].country })
	for i, t := range ts {
		if i > 0 && t.country == ts[i-1].country {
			return nil, fmt.Errorf("depgraph: duplicate tally for country %q", t.country)
		}
		t.fold()
	}

	g := &Graph{
		countries: make([]string, len(ts)),
		pos:       make(map[string]int, len(ts)),
		ids:       make(map[string]uint32),
		m:         m,
	}
	for l := range g.cols {
		g.cols[l] = make([]siteCol, len(ts))
	}

	var rows, siteEdges int64
	for i, t := range ts {
		g.countries[i] = t.country
		g.pos[t.country] = i
		rows += t.rows
		for l := 0; l < numGraphLayers; l++ {
			col := buildSiteCol(t.counts[l], g)
			g.cols[l][i] = col
			g.layerTotal[l] += col.total
			siteEdges += int64(len(col.syms))
		}
	}

	// Merge the co-occurrence and home tallies corpus-wide. Integer sums
	// are order-independent, so map iteration order cannot leak into the
	// result.
	var pairSum [numPairKinds]map[pair]int64
	for k := range pairSum {
		pairSum[k] = make(map[pair]int64)
		for _, t := range ts {
			for pr, n := range t.pairs[k] {
				pairSum[k][pr] += n
			}
		}
	}
	homeSum := make(map[pair]int64)
	for _, t := range ts {
		for pr, n := range t.homes {
			homeSum[pr] += n
		}
	}

	// Plurality home country per node. Every provider in homeSum was
	// counted in some layer column, so the symbol lookup always hits.
	g.home = make([]string, len(g.names))
	homeBest := make([]best, len(g.names))
	for pr, n := range homeSum {
		homeBest[g.ids[pr.from]].offer(pr.to, n)
	}
	for s := range homeBest {
		if homeBest[s].ok {
			g.home[s] = homeBest[s].name
		}
	}

	// Infer provider→provider edges: for each co-occurrence kind, a
	// provider depends on the plurality partner observed across the sites
	// it serves. Self-pairs are excluded from the competition — a
	// provider is never its own dependency.
	adj := make([][]uint32, len(g.names))
	for k := range pairSum {
		edgeBest := make([]best, len(g.names))
		for pr, n := range pairSum[k] {
			if pr.from == pr.to {
				continue
			}
			edgeBest[g.ids[pr.from]].offer(pr.to, n)
		}
		for s := range edgeBest {
			if edgeBest[s].ok {
				adj[s] = append(adj[s], g.ids[edgeBest[s].name])
			}
		}
	}
	var provEdges int64
	g.edges = make([][]uint32, len(g.names))
	for s := range adj {
		g.edges[s] = dedupSorted(adj[s])
		provEdges += int64(len(g.edges[s]))
	}

	var sccs int
	g.closure, sccs = closureOf(g.edges)

	g.stats.RowsScanned.Store(rows)
	g.stats.Nodes.Store(int64(len(g.names)))
	g.stats.SiteEdges.Store(siteEdges)
	g.stats.ProviderEdges.Store(provEdges)
	g.stats.ClosureSCCs.Store(int64(sccs))
	m.builds.Inc()
	m.rows.Add(rows)
	m.nodes.Add(int64(len(g.names)))
	m.siteEdges.Add(siteEdges)
	m.provEdges.Add(provEdges)
	m.sccs.Add(int64(sccs))
	return g, nil
}

// buildSiteCol converts one (country, layer) tally into its columnar
// form — providers sorted (count descending, name ascending), interned
// in that order — growing the graph's symbol table as needed.
func buildSiteCol(counts map[string]int64, g *Graph) siteCol {
	names := make([]string, 0, len(counts))
	for p := range counts {
		names = append(names, p)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := counts[names[i]], counts[names[j]]
		if ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	col := siteCol{
		syms:   make([]uint32, len(names)),
		counts: make([]int64, len(names)),
	}
	for i, p := range names {
		col.syms[i] = g.intern(p)
		n := counts[p]
		col.counts[i] = n
		col.total += n
	}
	return col
}

// intern returns the symbol for a provider name, assigning the next
// dense id on first use.
func (g *Graph) intern(name string) uint32 {
	if s, ok := g.ids[name]; ok {
		return s
	}
	s := uint32(len(g.names))
	g.ids[name] = s
	g.names = append(g.names, name)
	return s
}

// dedupSorted sorts a small symbol list and removes duplicates in place.
func dedupSorted(syms []uint32) []uint32 {
	if len(syms) < 2 {
		return syms
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	out := syms[:1]
	for _, s := range syms[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

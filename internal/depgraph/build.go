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
// extraction into per-country tallies, followed by a merge whose serial
// part is the symbol intern — ranking and summing run on workers — and the
// transitive closure over the merged edges. A graph tally counts on top of
// the scoring tally, dataset.CountryTally: that tally owns the ID table,
// the per-layer provider counts and the skip rules, and the graph adds only
// pair and home evidence over the same IDs. Because a Tally is a pure fold
// over website rows, the same rows produce the same graph whether they came
// from in-memory lists, a streamed store shard, or any worker count — the
// permutation-invariance property tests pin this down.

// pairKind enumerates the observed provider co-occurrence kinds the
// edge inference draws from.
const (
	pairHostDNS = iota // site's host provider observed with its DNS provider
	pairHostCA         // site's host provider observed with its CA owner
	pairDNSCA          // site's DNS provider observed with its CA owner
	numPairKinds
)

// Tally accumulates one country's graph evidence: its scoring tally, which
// counts each layer's providers, plus the rows it saw, provider
// co-occurrences and provider-country observations keyed by the two IDs of
// the scoring tally's table packed into a uint64 (first<<32 | second). A
// tally takes Website rows or blocks of one stream, never both, and is not
// safe for concurrent use.
type Tally struct {
	scores *dataset.CountryTally
	rows   int64
	pairs  [numPairKinds]map[uint64]int64
	homes  map[uint64]int64 // pack(provider, observed country) -> observations
}

// NewTally returns an empty tally for one country.
func NewTally(country string) *Tally {
	t := &Tally{scores: dataset.NewCountryTally(country), homes: make(map[uint64]int64)}
	for k := range t.pairs {
		t.pairs[k] = make(map[uint64]int64)
	}
	return t
}

// Observe folds one website row into the tally: the scoring tally interns
// and counts it, and the graph's evidence is read from the one-row block
// that makes. A layer's measured total in the graph is therefore the
// scoring index's distribution mass for that (country, layer).
func (t *Tally) Observe(w *dataset.Website) { t.observe(t.scores.Observe(w)) }

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

func pack(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// ObserveBlock folds a block of interned rows into the tally. The scoring
// tally counts it first, and panics on a block from a second stream or
// after Website rows.
func (t *Tally) ObserveBlock(b *dataset.SymbolBlock) {
	t.scores.ObserveBlock(b)
	t.observe(b)
}

// observe adds the graph's evidence from a block the scoring tally has
// counted: a home needs a provider and a country, a pair needs both ends.
func (t *Tally) observe(b *dataset.SymbolBlock) {
	empty := t.scores.Empty()
	t.rows += int64(b.Rows())
	for _, cols := range graphSymbols {
		homes := b.Cols[cols.country]
		for i, p := range b.Cols[cols.provider] {
			if p != empty && homes[i] != empty {
				t.homes[pack(p, homes[i])]++
			}
		}
	}
	for k, kind := range pairLayers {
		pairs, to := t.pairs[k], b.Cols[graphSymbols[kind.to].provider]
		for i, from := range b.Cols[graphSymbols[kind.from].provider] {
			if from != empty && to[i] != empty {
				pairs[pack(from, to[i])]++
			}
		}
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
	g, err := merge(tallies, opts.Workers, m)
	if err != nil {
		// A corpus keys lists by country and a tally's own table names
		// each provider once, so the merge cannot refuse these tallies.
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
	tallies, err := scanTallies(st, opts.Workers)
	if err != nil {
		return nil, err
	}
	return mergeTimed(tallies, opts.Workers, m, sp)
}

// ScanStore is FromStore and Store.Score in one decode: every block feeds
// the country's one tally, whose scoring tally counts the providers the
// graph and the scores share, so a caller that wants both surfaces — the
// serving daemon, score -spof — reads and counts the store once. The two
// serial tails, the graph merge and the scoring index build, only read the
// tallies and run side by side when opts.Workers allows. Both results are
// bit-identical to the separate calls at any worker count.
func ScanStore(st *corpusstore.Store, opts *Options) (*dataset.ScoreSet, *Graph, error) {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	sp := obs.StartSpan(m.buildMS)
	tallies, err := scanTallies(st, opts.Workers)
	if err != nil {
		return nil, nil, err
	}
	scores := make([]*dataset.CountryTally, len(tallies))
	for i, t := range tallies {
		scores[i] = t.scores
	}
	var (
		ss *dataset.ScoreSet
		g  *Graph
	)
	err = parallel.ForEachIndexed(context.Background(), opts.Workers, 2, func(_ context.Context, i int) (err error) {
		if i == 0 {
			g, err = mergeTimed(tallies, opts.Workers, m, sp)
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

// scanTallies fills one tally per country, aligned with st.Countries(),
// from one Store.Scan.
func scanTallies(st *corpusstore.Store, workers int) ([]*Tally, error) {
	tallies := make([]*Tally, len(st.Countries()))
	err := st.Scan(workers, func(i int, cc string) func(*dataset.SymbolBlock) {
		tallies[i] = NewTally(cc)
		return tallies[i].ObserveBlock
	})
	if err != nil {
		return nil, err
	}
	return tallies, nil
}

// FromTallies merges independently accumulated per-country tallies into
// a graph — the entry point for callers that already stream rows
// themselves. Tallies may arrive in any order; countries must be unique.
// The merge reads the tallies' tables, so they must be done observing.
func FromTallies(tallies []*Tally, opts *Options) (*Graph, error) {
	opts = opts.orDefault()
	m := newMetrics(opts.Obs)
	return mergeTimed(tallies, opts.Workers, m, obs.StartSpan(m.buildMS))
}

// mergeTimed is merge closing the build span its caller opened, on success.
func mergeTimed(tallies []*Tally, workers int, m *metrics, sp obs.Span) (*Graph, error) {
	g, err := merge(tallies, workers, m)
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
	id uint32
	n  int64
	ok bool
}

// offer proposes id, named names[id], with n observations.
func (b *best) offer(id uint32, n int64, names []string) {
	if !b.ok || n > b.n || (n == b.n && names[id] < names[b.id]) {
		b.id, b.n, b.ok = id, n, true
	}
}

// merge folds per-country tallies into the immutable graph in three
// phases. Each country's layers are ranked on a worker of their own. The
// calling goroutine interns the ranked providers in (country, layer, rank)
// order, which fixes every symbol, and records each tally's local-to-graph
// ID table. Then one task per co-occurrence kind, and one for the home
// countries, sums the tallies' evidence under graph symbols and picks the
// pluralities. Integer sums are order-independent and the pluralities are
// total orders, so neither the worker count nor map iteration order can
// reach the result.
func merge(tallies []*Tally, workers int, m *metrics) (*Graph, error) {
	ts := append([]*Tally(nil), tallies...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].scores.Country() < ts[j].scores.Country() })
	for i, t := range ts {
		if i > 0 && t.scores.Country() == ts[i-1].scores.Country() {
			return nil, fmt.Errorf("depgraph: duplicate tally for country %q", t.scores.Country())
		}
	}
	ctx := context.Background()
	ranked := make([][numGraphLayers][]uint32, len(ts))
	err := parallel.ForEachIndexed(ctx, workers, len(ts), func(_ context.Context, i int) error {
		for l, layer := range graphLayers {
			ranked[i][l] = ts[i].scores.Ranked(layer)
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	var (
		rows, siteEdges int64
		// Per tally, local ID -> graph symbol. Every ID a pair or a home
		// names as a provider was counted, so has one.
		local  = make([][]uint32, len(ts))
		placed []int // symbol -> the last column, numbered from 1, it joined
		column int
	)
	for i, t := range ts {
		cc, names := t.scores.Country(), t.scores.Names()
		g.countries[i] = cc
		g.pos[cc] = i
		rows += t.rows
		local[i] = make([]uint32, len(names))
		for l, layer := range graphLayers {
			column++
			// The ranked local IDs become the column's symbols in place.
			col := siteCol{syms: ranked[i][l], counts: make([]int64, len(ranked[i][l]))}
			for k, id := range col.syms {
				s := g.intern(names[id])
				if int(s) == len(placed) {
					placed = append(placed, 0)
				}
				if placed[s] == column {
					return nil, fmt.Errorf("depgraph: tally for %q names provider %q under two IDs", cc, names[id])
				}
				placed[s] = column
				local[i][id] = s
				n := int64(t.scores.Count(layer, id))
				col.syms[k], col.counts[k] = s, n
				col.total += n
			}
			g.cols[l][i] = col
			g.layerTotal[l] += col.total
			siteEdges += int64(len(col.syms))
		}
	}

	// Infer provider→provider edges: for each co-occurrence kind, a
	// provider depends on the plurality partner observed across the sites
	// it serves. Self-pairs are excluded from the competition — a
	// provider is never its own dependency. The last task picks each
	// provider's plurality home country.
	var partner [numPairKinds][]best
	err = parallel.ForEachIndexed(ctx, workers, numPairKinds+1, func(_ context.Context, k int) error {
		if k == numPairKinds {
			g.home = homes(ts, local, len(g.names))
		} else {
			partner[k] = partners(ts, local, k, g.names)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var provEdges int64
	g.edges = make([][]uint32, len(g.names))
	for s := range g.edges {
		var adj []uint32
		for k := range partner {
			if p := partner[k][s]; p.ok {
				adj = append(adj, p.id)
			}
		}
		g.edges[s] = dedupSorted(adj)
		provEdges += int64(len(g.edges[s]))
	}

	var sccs int
	g.closure, sccs = closureOf(g.edges)
	g.rankSPOFs()

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

// partners sums co-occurrence kind k across the tallies under graph
// symbols and returns each provider's plurality partner, self-pairs
// excluded.
func partners(ts []*Tally, local [][]uint32, k int, names []string) []best {
	sum := make(map[uint64]int64)
	for i, t := range ts {
		for key, n := range t.pairs[k] {
			if from, to := local[i][key>>32], local[i][uint32(key)]; from != to {
				sum[pack(from, to)] += n
			}
		}
	}
	win := make([]best, len(names))
	for key, n := range sum {
		win[key>>32].offer(uint32(key), n, names)
	}
	return win
}

// homes sums the tallies' provider-country observations under graph
// symbols and returns each provider's plurality home country, "" when
// none was observed. Countries get their own intern, so ties break by name
// as everywhere else.
func homes(ts []*Tally, local [][]uint32, nodes int) []string {
	var (
		ids   = make(map[string]uint32)
		names []string
		sum   = make(map[uint64]int64)
	)
	for i, t := range ts {
		tnames := t.scores.Names()
		for key, n := range t.homes {
			country := tnames[uint32(key)]
			c, ok := ids[country]
			if !ok {
				c = uint32(len(names))
				ids[country] = c
				names = append(names, country)
			}
			sum[pack(local[i][key>>32], c)] += n
		}
	}
	win := make([]best, nodes)
	for key, n := range sum {
		win[key>>32].offer(uint32(key), n, names)
	}
	home := make([]string, nodes)
	for s := range win {
		if win[s].ok {
			home[s] = names[win[s].id]
		}
	}
	return home
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

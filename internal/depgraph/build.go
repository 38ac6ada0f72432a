package depgraph

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
)

// This file is the graph construction path: a one-pass parallel
// extraction into per-country tallies (the same shape as the streamed
// dataset.CountryTally), followed by a merge whose serial part is the
// symbol intern — ranking and summing run on workers — and the transitive
// closure over the merged edges. A tally counts symbol IDs — a store
// stream's, or, for Website rows, its dataset.RowTable's — so the skip
// rules exist once, on IDs. Because a Tally is a pure fold over website
// rows, the same rows produce the same graph whether they came from
// in-memory lists, a streamed store shard, or any worker count — the
// permutation-invariance property tests pin this down.

// pairKind enumerates the observed provider co-occurrence kinds the
// edge inference draws from.
const (
	pairHostDNS = iota // site's host provider observed with its DNS provider
	pairHostCA         // site's host provider observed with its CA owner
	pairDNSCA          // site's DNS provider observed with its CA owner
	numPairKinds
)

// Tally accumulates one country's graph evidence in symbol IDs: per-layer
// provider site counts in dense per-symbol slices, and provider
// co-occurrences and provider-country observations keyed by the two IDs
// packed into a uint64 (first<<32 | second). The IDs index one table: the
// stream's, for a tally fed ObserveBlock, or the tally's own RowTable, for
// one fed Observe. A tally takes one of the two inputs, never both, and is
// not safe for concurrent use.
type Tally struct {
	country string
	rows    int64
	names   []string // the ID table as of the last observation
	scanned int      // names already checked for empty
	empty   uint32   // ID of "", the unmeasured provider or country
	counts  [numGraphLayers][]int64
	pairs   [numPairKinds]map[uint64]int64
	homes   map[uint64]int64  // pack(provider, observed country) -> observations
	table   *dataset.RowTable // Observe's table; nil until the first row
}

// NewTally returns an empty tally for one country.
func NewTally(country string) *Tally {
	t := &Tally{country: country, empty: dataset.NoSymbol, homes: make(map[uint64]int64)}
	for k := range t.pairs {
		t.pairs[k] = make(map[uint64]int64)
	}
	return t
}

// Observe folds one website row into the tally: the tally's RowTable
// interns the row's seven symbol fields, and ObserveBlock's rules are
// applied to the one-row block that makes. Empty provider fields are
// skipped per layer — the same rule the scoring tally applies — so a
// layer's measured total in the graph equals the scoring index's
// distribution mass for that (country, layer).
func (t *Tally) Observe(w *dataset.Website) {
	if t.table == nil {
		if t.names != nil {
			panic(fmt.Sprintf("depgraph: tally for %q observed symbol blocks, then a Website row; a tally takes one kind of input", t.country))
		}
		t.table = new(dataset.RowTable)
	}
	t.observe(t.table.Block(w))
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

func pack(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// ObserveBlock folds a block of interned rows into the tally. Every block
// given to one tally must come from the same stream, whose table only
// grows; a block whose table does not extend the last one, or a block after
// Website rows, panics rather than mix two ID tables.
func (t *Tally) ObserveBlock(b *dataset.SymbolBlock) {
	if t.table != nil {
		panic(fmt.Sprintf("depgraph: tally for %q observed Website rows, then a symbol block; a tally takes one kind of input", t.country))
	}
	if len(b.Names) < len(t.names) || !slices.Equal(b.Names[:len(t.names)], t.names) {
		panic(fmt.Sprintf("depgraph: tally for %q observed blocks from two streams; every block given to one tally must come from the same stream", t.country))
	}
	t.observe(b)
}

// observe applies the tally's rules to a block over its table: an empty
// provider is not counted, a home needs a provider and a country, a pair
// needs both ends.
func (t *Tally) observe(b *dataset.SymbolBlock) {
	t.names = b.Names
	for ; t.scanned < len(b.Names); t.scanned++ {
		if b.Names[t.scanned] == "" {
			t.empty = uint32(t.scanned)
		}
	}
	t.rows += int64(b.Rows())
	for l := range t.counts {
		counts := t.counts[l]
		if len(counts) < len(b.Names) {
			counts = append(counts, make([]int64, len(b.Names)-len(counts))...)
			t.counts[l] = counts
		}
		homes := b.Cols[graphSymbols[l].country]
		for i, p := range b.Cols[graphSymbols[l].provider] {
			if p == t.empty {
				continue
			}
			counts[p]++
			if homes[i] != t.empty {
				t.homes[pack(p, homes[i])]++
			}
		}
	}
	for k, kind := range pairLayers {
		pairs, to := t.pairs[k], b.Cols[graphSymbols[kind.to].provider]
		for i, from := range b.Cols[graphSymbols[kind.from].provider] {
			if from != t.empty && to[i] != t.empty {
				pairs[pack(from, to[i])]++
			}
		}
	}
}

// ranked returns, per layer, the IDs the tally counted, sorted (count
// descending, name ascending) — the order the graph interns them in.
func (t *Tally) ranked() (out [numGraphLayers][]uint32) {
	for l, counts := range t.counts {
		n := 0
		for _, c := range counts {
			if c > 0 {
				n++
			}
		}
		ids := make([]uint32, 0, n)
		for id, c := range counts {
			if c > 0 {
				ids = append(ids, uint32(id))
			}
		}
		slices.SortFunc(ids, func(a, b uint32) int {
			if counts[a] != counts[b] {
				return cmp.Compare(counts[b], counts[a])
			}
			return strings.Compare(t.names[a], t.names[b])
		})
		out[l] = ids
	}
	return out
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
	tallies, err := scanTallies(st, opts.Workers, nil)
	if err != nil {
		return nil, err
	}
	return mergeTimed(tallies, opts.Workers, m, sp)
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
	sort.Slice(ts, func(i, j int) bool { return ts[i].country < ts[j].country })
	for i, t := range ts {
		if i > 0 && t.country == ts[i-1].country {
			return nil, fmt.Errorf("depgraph: duplicate tally for country %q", t.country)
		}
	}
	ctx := context.Background()
	ranked := make([][numGraphLayers][]uint32, len(ts))
	err := parallel.ForEachIndexed(ctx, workers, len(ts), func(_ context.Context, i int) error {
		ranked[i] = ts[i].ranked()
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
		g.countries[i] = t.country
		g.pos[t.country] = i
		rows += t.rows
		local[i] = make([]uint32, len(t.names))
		for l := 0; l < numGraphLayers; l++ {
			column++
			// The ranked local IDs become the column's symbols in place.
			col := siteCol{syms: ranked[i][l], counts: make([]int64, len(ranked[i][l]))}
			for k, id := range col.syms {
				s := g.intern(t.names[id])
				if int(s) == len(placed) {
					placed = append(placed, 0)
				}
				if placed[s] == column {
					return nil, fmt.Errorf("depgraph: tally for %q names provider %q under two IDs", t.country, t.names[id])
				}
				placed[s] = column
				local[i][id] = s
				n := t.counts[l][id]
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
		for key, n := range t.homes {
			country := t.names[uint32(key)]
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

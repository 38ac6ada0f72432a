package dataset

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/tldinfo"
)

// This file implements the corpus's columnar scoring index: every
// ScoreSet entry point (Scores, Insularities, GlobalDistribution,
// UsageMatrix, UsageCurves, DistributionOf) reads from one immutable
// structure built from one CountryTally per country — filled by one
// Corpus.Scan, through the ScanScores a store's Score uses — in a single
// parallel pass, instead of re-scanning the corpus per call. The scoring
// rules exist once, on symbol IDs (CountryTally.observe). The index is
// built lazily behind a double-checked atomic pointer, so the first scoring
// call pays one O(corpus) pass and every later call — including the dozens
// the experiments suite issues while regenerating Tables 1–8 and Figures
// 1–13 — is a map read. Corpus.Add and Corpus.SetCoverage drop the index,
// so mutate-then-score (the checkpoint-resume merge path) always sees fresh
// numbers.

// numLayers sizes the per-layer arrays; the layers are consecutive
// iota values starting at Hosting.
const numLayers = int(countries.TLD) + 1

// symtab interns provider names to dense uint32 symbols, one table per
// corpus. Symbols are assigned in deterministic order (layer, sorted
// country, rank) during the index build, so two builds of the same corpus
// produce identical tables.
type symtab struct {
	ids   map[string]uint32
	names []string
}

func newSymtab() *symtab {
	return &symtab{ids: make(map[string]uint32)}
}

// intern returns the symbol for name, assigning the next id on first use.
func (s *symtab) intern(name string) uint32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := uint32(len(s.names))
	s.ids[name] = id
	s.names = append(s.names, name)
	return id
}

// name returns the provider string behind a symbol.
func (s *symtab) name(id uint32) string { return s.names[id] }

// countryCol is one (country, layer) column of the index: the provider
// count vector sorted by (count descending, provider ascending) — the
// exact ordering Distribution.Ranked uses — in interned columnar form,
// plus the precomputed score, insularity tally, and a frozen Distribution
// view for callers that want the full metric API.
type countryCol struct {
	syms   []uint32  // interned providers, aligned with counts
	counts []float64 // nonincreasing
	total  float64
	score  float64
	ins    core.Insularity
	rank   int                // 1-based place in the layer's ranked order
	dist   *core.Distribution // frozen; shared with every caller
}

// layerIndex is one layer's slice of the index.
type layerIndex struct {
	cols []countryCol // aligned with scoringIndex.countries
	// scores and insular are the precomputed per-country result maps;
	// accessors hand out clones so callers keep today's ownership
	// semantics.
	scores  map[string]float64
	insular map[string]float64
	global  *core.Distribution // frozen merge of every country's column
	// ranked holds country indices by score descending, then country code
	// ascending: the paper's table order, fixed once per index.
	ranked []int
}

// scoringIndex is the complete immutable index. After build it is only
// ever read, which is what makes concurrent Scores/GlobalDistribution/
// UsageMatrix calls race-clean.
type scoringIndex struct {
	countries []string // sorted; aligned with layerIndex.cols
	pos       map[string]int
	providers *symtab
	layers    [numLayers]layerIndex
}

// index returns the corpus's scoring index, building it on first use from
// one scan of the corpus's own rows. Concurrent callers during a build
// serialize on buildMu; the fast path after a build is one atomic load.
func (c *Corpus) index() *scoringIndex {
	if idx := c.scoring.Load(); idx != nil {
		return idx
	}
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if idx := c.scoring.Load(); idx != nil {
		return idx
	}
	ss, err := ScanScores(c, c.Workers)
	if err != nil {
		// A corpus scan cannot fail and a RowTable names each provider
		// once. Panicking — rather than a silent `_ =` discard — means a
		// future fallible extraction fails loudly instead of zero-filling
		// every score.
		panic(fmt.Sprintf("dataset: scoring-index extraction failed: %v", err))
	}
	c.scoring.Store(ss.idx)
	return ss.idx
}

// InvalidateScoringIndex drops the cached scoring index so the next
// scoring call rebuilds it from the current rows. Add and SetCoverage call
// this automatically; callers that mutate a CountryList's Sites slice in
// place (tests, benchmarks) must call it themselves.
func (c *Corpus) InvalidateScoringIndex() { c.scoring.Store(nil) }

// indexTallies builds a ScoreSet from per-country tallies, done observing,
// in sorted country order with no country twice. Turning a tally into the
// country's four columns — rank, frozen Distribution, score, insularity —
// runs on one of up to workers goroutines (0 means one per core) per
// country. The symbol intern and the global distributions run on the
// calling goroutine in (layer, country, rank) order, so the same tallies
// always produce the same table — whether they counted in-memory rows or a
// streamed shard, on any worker count. A tally whose table names one
// provider under two IDs is refused.
func indexTallies(ts []*CountryTally, workers int) (*ScoreSet, error) {
	cols, err := parallel.Map(context.Background(), workers, len(ts),
		func(_ context.Context, i int) (out [numLayers]countryCol, _ error) {
			for l := range out {
				ts[i].buildCol(&out[l], l)
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	ccs := make([]string, len(ts))
	idx := &scoringIndex{countries: ccs, pos: make(map[string]int, len(ts)), providers: newSymtab()}
	for i, t := range ts {
		ccs[i] = t.country
		idx.pos[t.country] = i
	}
	var (
		placed []int // symbol -> the last column, numbered from 1, it joined
		column int
	)
	for l := 0; l < numLayers; l++ {
		ly := &idx.layers[l]
		ly.cols = make([]countryCol, len(ccs))
		ly.scores = make(map[string]float64, len(ccs))
		ly.insular = make(map[string]float64, len(ccs))
		var global []float64 // symbol -> the layer's corpus-wide count
		var used []uint32    // symbols the layer counted, first use first
		for i, cc := range ccs {
			column++
			col := &ly.cols[i]
			*col = cols[i][l]
			// The ranked tally IDs become the column's symbols in place.
			for k, id := range col.syms {
				name := ts[i].names[id]
				s := idx.providers.intern(name)
				if int(s) == len(placed) {
					placed = append(placed, 0)
				}
				if placed[s] == column {
					return nil, fmt.Errorf("dataset: tally for %q names provider %q under two IDs", ts[i].country, name)
				}
				placed[s] = column
				col.syms[k] = s
				if int(s) >= len(global) {
					global = append(global, make([]float64, int(s)+1-len(global))...)
				}
				if global[s] == 0 {
					used = append(used, s)
				}
				global[s] += col.counts[k]
			}
			ly.scores[cc] = col.score
			ly.insular[cc] = col.ins.Fraction()
		}
		ly.global = globalDistribution(used, global, idx.providers)
		ly.ranked = make([]int, len(ccs))
		for i := range ly.ranked {
			ly.ranked[i] = i
		}
		// ccs is sorted, so equal scores order by index, which is by code.
		slices.SortFunc(ly.ranked, func(a, b int) int {
			if sa, sb := ly.cols[a].score, ly.cols[b].score; sa != sb {
				return cmp.Compare(sb, sa)
			}
			return cmp.Compare(a, b)
		})
		for r, i := range ly.ranked {
			ly.cols[i].rank = r + 1
		}
	}
	return &ScoreSet{idx: idx}, nil
}

// globalDistribution freezes a layer's corpus-wide counts: the symbols it
// used, ranked (count descending, name ascending) — the distribution
// core.FromCounts would freeze from the same counts, built without a map.
func globalDistribution(used []uint32, global []float64, providers *symtab) *core.Distribution {
	slices.SortFunc(used, func(a, b uint32) int {
		if global[a] != global[b] {
			return cmp.Compare(global[b], global[a])
		}
		return strings.Compare(providers.name(a), providers.name(b))
	})
	names := make([]string, len(used))
	counts := make([]float64, len(used))
	for k, s := range used {
		names[k], counts[k] = providers.name(s), global[s]
	}
	return core.FromSorted(names, counts)
}

// Ranked returns the IDs the tally counted at the layer, sorted by (count
// desc, name asc) — the order Distribution.Ranked uses, and the order the
// scoring index and the dependency graph intern providers in. The slice is
// the caller's.
func (t *CountryTally) Ranked(layer countries.Layer) []uint32 {
	counts := t.counts[layer]
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
	return ids
}

// buildCol turns one layer of a tally into its column: the Ranked IDs
// with their counts, the score, the insularity tally and the frozen
// Distribution view. The column's syms are still the tally's IDs; the
// intern turns them into symbols. The sorted count vector feeds
// emd.Centralization through core.FromSorted, so the score is
// bit-identical to Distribution.Score over the same counts.
func (t *CountryTally) buildCol(col *countryCol, l int) {
	col.syms = t.Ranked(countries.Layer(l))
	names := make([]string, len(col.syms))
	col.counts = make([]float64, len(col.syms))
	for k, id := range col.syms {
		names[k] = t.names[id]
		col.counts[k] = float64(t.counts[l][id])
		col.total += col.counts[k]
	}
	col.dist = core.FromSorted(names, col.counts)
	col.score = col.dist.Score()
	if countries.Layer(l) != countries.TLD {
		col.ins = core.Insularity{Domestic: float64(t.inside[l]), Total: float64(t.total[l])}
		return
	}
	// The TLD rule of CountryList.Insularity, applied once per distinct TLD
	// rather than per row, summed in rank order.
	for k, name := range names {
		col.ins.Total += col.counts[k]
		if t.country != "" && tldinfo.InsularTo(name) == t.country {
			col.ins.Domestic += col.counts[k]
		}
	}
}

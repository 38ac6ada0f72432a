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
)

// This file implements the corpus's columnar scoring index: every
// corpus-wide analysis entry point (Scores, Insularities,
// GlobalDistribution, UsageMatrix, UsageCurves, DistributionOf) reads from
// one immutable structure extracted in a single parallel pass over the
// website rows, instead of re-scanning the corpus per call. The index is
// built lazily behind a double-checked atomic pointer, so the first scoring
// call pays one O(corpus) extraction and every later call — including the
// dozens the experiments suite issues while regenerating Tables 1–8 and
// Figures 1–13 — is a map read. Corpus.Add and Corpus.SetCoverage drop the
// index, so mutate-then-score (the checkpoint-resume merge path) always
// sees fresh numbers.

// numLayers sizes the per-layer arrays; the layers are consecutive
// iota values starting at Hosting.
const numLayers = int(countries.TLD) + 1

// symtab interns provider names to dense uint32 symbols, one table per
// corpus. Symbols are assigned in deterministic order (sorted country,
// layer, rank) during the index build, so two builds of the same corpus
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

// index returns the corpus's scoring index, building it on first use.
// Concurrent callers during a build serialize on buildMu; the fast path
// after a build is one atomic load.
func (c *Corpus) index() *scoringIndex {
	if idx := c.scoring.Load(); idx != nil {
		return idx
	}
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if idx := c.scoring.Load(); idx != nil {
		return idx
	}
	idx := c.buildIndex()
	c.scoring.Store(idx)
	return idx
}

// InvalidateScoringIndex drops the cached scoring index so the next
// scoring call rebuilds it from the current rows. Add and SetCoverage call
// this automatically; callers that mutate a CountryList's Sites slice in
// place (tests, benchmarks) must call it themselves.
func (c *Corpus) InvalidateScoringIndex() { c.scoring.Store(nil) }

// rawLayer is the per-worker extraction result for one (country, layer):
// plain string-keyed counts (interning happens later, single-threaded, so
// the symbol table needs no locking) and the insularity tally.
type rawLayer struct {
	counts map[string]uint32
	ins    core.Insularity
}

// buildIndex extracts the whole index in one parallel pass over the
// corpus: each worker scans one country's website rows once, tallying all
// four layers simultaneously, and builds that country's columns.
func (c *Corpus) buildIndex() *scoringIndex {
	ccs := c.Countries()
	return buildIndexFromRaws(ccs, c.Workers, func(i int) *[numLayers]rawLayer {
		raws := extractCountry(c.Lists[ccs[i]])
		return &raws
	})
}

// buildIndexFromRaws builds the immutable index from per-country layer
// tallies. ccs must be sorted; raw(i) returns country i's tallies. Calling
// it and turning its tallies into the country's four columns — sort,
// frozen Distribution, score, insularity — run on one of up to workers
// goroutines (0 means one per core) per country. The symbol intern and the
// global distributions run on the calling goroutine in (layer, country,
// rank) order, so the same tallies always produce the same table — whether
// they came from in-memory rows or a streamed shard, on any worker count.
func buildIndexFromRaws(ccs []string, workers int, raw func(i int) *[numLayers]rawLayer) *scoringIndex {
	cols, err := parallel.Map(context.Background(), workers, len(ccs),
		func(_ context.Context, i int) (out [numLayers]countryCol, _ error) {
			raws := raw(i)
			for l := range out {
				buildCol(&out[l], &raws[l])
			}
			return out, nil
		})
	if err != nil {
		// Map only fails when fn errors or the context is cancelled; the
		// column build is infallible and the context above is never
		// cancelled, so this branch is unreachable (the invariant
		// TestScoringExtractionCannotFail pins down). Panicking — rather
		// than a silent `_ =` discard — means a future fallible extraction
		// fails loudly instead of zero-filling every score.
		panic(fmt.Sprintf("dataset: scoring-index extraction failed: %v", err))
	}
	idx := &scoringIndex{
		countries: ccs,
		pos:       make(map[string]int, len(ccs)),
		providers: newSymtab(),
	}
	for i, cc := range ccs {
		idx.pos[cc] = i
	}
	for l := 0; l < numLayers; l++ {
		ly := &idx.layers[l]
		ly.cols = make([]countryCol, len(ccs))
		ly.scores = make(map[string]float64, len(ccs))
		ly.insular = make(map[string]float64, len(ccs))
		var global []float64 // symbol -> the layer's corpus-wide count
		var used []uint32    // symbols the layer counted, first use first
		for i, cc := range ccs {
			col := &ly.cols[i]
			*col = cols[i][l]
			col.syms = make([]uint32, len(col.counts))
			for k, ps := range col.dist.Ranked() {
				s := idx.providers.intern(ps.Provider)
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
	}
	return idx
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

// extractCountry tallies one country's provider counts and insularity for
// every layer in a single scan over its website rows. Sites with an empty
// provider are skipped and the TLD layer carries no insularity tally,
// mirroring CountryList.Distribution and CountryList.Insularity exactly.
func extractCountry(list *CountryList) [numLayers]rawLayer {
	var out [numLayers]rawLayer
	initRaws(&out)
	for i := range list.Sites {
		observeSite(&out, list.Country, &list.Sites[i])
	}
	return out
}

func initRaws(out *[numLayers]rawLayer) {
	for l := range out {
		out[l].counts = make(map[string]uint32)
	}
}

// observeSite folds one website row into a country's per-layer tallies —
// the row-level unit of the corpus extraction and of CountryTally.Observe.
// CountryTally.ObserveBlock applies the same rules to symbol IDs, which is
// how a stored shard is scored; a rule changed here changes there too, and
// TestObserveBlockMatchesObserve fails until it does.
func observeSite(out *[numLayers]rawLayer, country string, w *Website) {
	for _, layer := range countries.Layers {
		p, pc := w.ProviderOf(layer)
		if p == "" {
			continue
		}
		raw := &out[layer]
		raw.counts[p]++
		if layer != countries.TLD {
			raw.ins.Observe(country, pc)
		}
	}
}

// buildCol converts one raw (country, layer) tally into its columnar form,
// all but the symbols: providers sorted by (count desc, name asc), the
// score, and the frozen Distribution view. The sorted count vector feeds
// emd.CentralizationSorted through core.FromSorted, so the score is
// bit-identical to Distribution.Score over the same tally.
func buildCol(col *countryCol, raw *rawLayer) {
	type providerCount struct {
		name string
		n    uint32
	}
	ranked := make([]providerCount, 0, len(raw.counts))
	for p, n := range raw.counts {
		ranked = append(ranked, providerCount{p, n})
	}
	slices.SortFunc(ranked, func(a, b providerCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return strings.Compare(a.name, b.name)
	})
	names := make([]string, len(ranked))
	col.counts = make([]float64, len(ranked))
	for i, pc := range ranked {
		names[i] = pc.name
		col.counts[i] = float64(pc.n)
		col.total += col.counts[i]
	}
	col.dist = core.FromSorted(names, col.counts)
	col.score = col.dist.Score()
	col.ins = raw.ins
}

// cloneScores copies a precomputed result map so callers own their copy,
// matching the pre-index API's semantics.
func cloneScores(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

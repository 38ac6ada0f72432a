package dataset

import (
	"fmt"
	"maps"
	"sort"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
)

// This file is the streaming face of the columnar scoring index: a caller
// that cannot (or will not) materialize a corpus feeds per-country
// CountryTally accumulators — as blocks of symbol IDs (ObserveBlock), as the
// on-disk corpus store does from its per-shard symbol tables, or one Website
// at a time (Observe), interned through the tally's own RowTable — and
// merges them into a ScoreSet, the same frozen scoring surface a Corpus
// exposes. A Corpus builds its index from the same tallies through the same
// merge, so streamed scores are bit-identical to scoring the rows in memory.

// CountryTally accumulates one country's per-layer provider tallies in
// symbol IDs: dense per-symbol counts for each layer, plus each layer's
// measured and domestic site counts. The IDs index one table: the stream's,
// for a tally fed ObserveBlock, or the tally's own RowTable, for one fed
// Observe. A tally takes one of the two inputs, never both. It holds only
// counts, never the rows, so its size is bounded by the country's provider
// diversity rather than its site count. It is the one provider count:
// depgraph's graph tally holds one and reads its counts, ranking and table
// rather than keeping its own. A tally is not safe for concurrent use.
type CountryTally struct {
	country string
	names   []string // the ID table as of the last observation
	scanned int      // names already checked for empty and home
	empty   uint32   // ID of "", the unmeasured provider
	home    uint32   // ID of the tally's own country
	counts  [numLayers][]uint32
	total   [numLayers]int // rows with a measured provider
	inside  [numLayers]int // of those, rows whose provider country is home
	table   *RowTable      // Observe's table; nil until the first row
}

// NewCountryTally returns an empty tally for the country.
func NewCountryTally(country string) *CountryTally {
	return &CountryTally{country: country, empty: NoSymbol, home: NoSymbol}
}

// Country returns the tally's country.
func (t *CountryTally) Country() string { return t.country }

// Names returns the tally's ID table as of the last observation.
func (t *CountryTally) Names() []string { return t.names }

// Empty returns the ID of "", the unmeasured provider or country, or
// NoSymbol while the table has no "".
func (t *CountryTally) Empty() uint32 { return t.empty }

// Count returns how many rows the tally counted under provider id at the
// layer; id must be in the table.
func (t *CountryTally) Count(layer countries.Layer, id uint32) int {
	return int(t.counts[layer][id])
}

// ScoreSet is the frozen scoring surface of one corpus: per-country scores,
// insularities, distributions, and usage — everything the analyses read —
// without the website rows behind it. A Corpus exposes its index as a
// ScoreSet via Corpus.ScoreSet; a streamed corpus builds one directly with
// BuildScoreSet. A ScoreSet is immutable and safe for concurrent use.
type ScoreSet struct {
	idx *scoringIndex
}

// Scored is what the score-only analyses take: anything that can hand out
// its frozen scoring surface. A *Corpus does (its index, built on first
// use) and so does a *ScoreSet itself, so one analysis body serves a
// corpus in memory and a store scanned from disk.
type Scored interface{ ScoreSet() *ScoreSet }

// ScoreSet returns the set itself: a ScoreSet is Scored.
func (s *ScoreSet) ScoreSet() *ScoreSet { return s }

// ScoreSet returns the corpus's scoring surface, building the index on
// first use. The returned set shares the corpus's cached index; it stays
// valid (as a snapshot) even if the corpus is mutated afterwards.
func (c *Corpus) ScoreSet() *ScoreSet { return &ScoreSet{idx: c.index()} }

// BuildScoreSet merges per-country streaming tallies into a ScoreSet.
// Tallies are merged in sorted country order regardless of input order, so
// the result — including the interned symbol table — is identical to
// building a Corpus from the same rows and reading its index. Duplicate
// countries are an error: two tallies for one country means the caller
// split a country across shards without merging them. So is a tally whose
// table names one provider under two IDs. The merge reads the tallies'
// tables, so they must be done observing.
func BuildScoreSet(tallies []*CountryTally) (*ScoreSet, error) {
	ordered := append([]*CountryTally(nil), tallies...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].country < ordered[j].country })
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1].country == ordered[i].country {
			return nil, fmt.Errorf("dataset: duplicate tally for country %s", ordered[i].country)
		}
	}
	return indexTallies(ordered, 0)
}

// ScanScores scans src once into one CountryTally per country and merges
// them into a ScoreSet, up to workers countries at a time (0 means one per
// core) in the scan and in the merge. It is how a Corpus builds its index
// and how Store.Score reads a store, so the two are bit-identical.
func ScanScores(src Source, workers int) (*ScoreSet, error) {
	tallies := make([]*CountryTally, len(src.Countries()))
	err := src.Scan(workers, func(i int, cc string) func(*SymbolBlock) {
		tallies[i] = NewCountryTally(cc)
		return tallies[i].ObserveBlock
	})
	if err != nil {
		return nil, err
	}
	return indexTallies(tallies, workers)
}

// Countries returns the set's country codes in sorted order.
func (s *ScoreSet) Countries() []string {
	return append([]string(nil), s.idx.countries...)
}

// Scores returns the centralization score per country for one layer. The
// returned map is the caller's to keep or modify.
func (s *ScoreSet) Scores(layer countries.Layer) map[string]float64 {
	return maps.Clone(s.idx.layers[layer].scores)
}

// Insularities returns the insularity fraction per country for one layer.
// The returned map is the caller's.
func (s *ScoreSet) Insularities(layer countries.Layer) map[string]float64 {
	return maps.Clone(s.idx.layers[layer].insular)
}

// EachScore calls fn with every country's score and insularity at the
// layer, in sorted country order — the entries of Scores and Insularities,
// read from the index's columns with no map built or sorted.
func (s *ScoreSet) EachScore(layer countries.Layer, fn func(country string, score, insularity float64)) {
	cols := s.idx.layers[layer].cols
	for i, cc := range s.idx.countries {
		fn(cc, cols[i].score, cols[i].ins.Fraction())
	}
}

// Standing is one country's place at one layer of a ScoreSet.
type Standing struct {
	Score      float64
	Insularity float64
	// Rank is the country's 1-based place in Ranking's order; Of is how
	// many countries were ranked.
	Rank, Of int
}

// Standing returns a country's score, insularity and rank at the layer, or
// false when the country is not in the set.
func (s *ScoreSet) Standing(country string, layer countries.Layer) (Standing, bool) {
	i, ok := s.idx.pos[country]
	if !ok {
		return Standing{}, false
	}
	col := &s.idx.layers[layer].cols[i]
	return Standing{Score: col.score, Insularity: col.ins.Fraction(), Rank: col.rank, Of: len(s.idx.countries)}, true
}

// Ranking returns the set's countries at the layer, most centralized
// first: score descending, then country code ascending. The order is fixed
// when the set is built; the slice is the caller's.
func (s *ScoreSet) Ranking(layer countries.Layer) []string {
	ranked := s.idx.layers[layer].ranked
	out := make([]string, len(ranked))
	for r, i := range ranked {
		out[r] = s.idx.countries[i]
	}
	return out
}

// DistributionOf returns the frozen provider distribution of one country's
// layer, or nil when the country is not in the set. The distribution is
// shared: safe for concurrent reads, not to be mutated.
func (s *ScoreSet) DistributionOf(country string, layer countries.Layer) *core.Distribution {
	i, ok := s.idx.pos[country]
	if !ok {
		return nil
	}
	return s.idx.layers[layer].cols[i].dist
}

// GlobalDistribution returns the frozen merge of every country's layer
// distribution. Shared: safe for concurrent reads, not to be mutated.
func (s *ScoreSet) GlobalDistribution(layer countries.Layer) *core.Distribution {
	return s.idx.layers[layer].global
}

// UsageMatrix returns each provider's usage percentage per country for one
// layer, built fresh per call from the columnar count vectors in sorted
// country order.
func (s *ScoreSet) UsageMatrix(layer countries.Layer) map[string]map[string]float64 {
	idx := s.idx
	ly := &idx.layers[layer]
	matrix := make(map[string]map[string]float64)
	for i, cc := range idx.countries {
		col := &ly.cols[i]
		if col.total == 0 {
			continue
		}
		for k, sym := range col.syms {
			provider := idx.providers.name(sym)
			m := matrix[provider]
			if m == nil {
				m = make(map[string]float64)
				matrix[provider] = m
			}
			m[cc] = 100 * col.counts[k] / col.total
		}
	}
	return matrix
}

// UsageCurves converts the layer's usage matrix into per-provider usage
// curves over the set's full country list (absent countries contribute
// zero, as in the paper's 150-value curves). It fills each provider's
// per-country percentages straight from the columnar count vectors, one
// slice per symbol the layer uses, with no nested maps in between.
func (s *ScoreSet) UsageCurves(layer countries.Layer) map[string]core.UsageCurve {
	idx := s.idx
	ly := &idx.layers[layer]
	bySym := make([][]float64, len(idx.providers.names))
	providers := 0
	for i := range idx.countries {
		col := &ly.cols[i]
		if col.total == 0 {
			continue
		}
		for k, sym := range col.syms {
			if bySym[sym] == nil {
				bySym[sym] = make([]float64, len(idx.countries))
				providers++
			}
			bySym[sym][i] = 100 * col.counts[k] / col.total
		}
	}
	out := make(map[string]core.UsageCurve, providers)
	for sym, vals := range bySym {
		if vals != nil {
			out[idx.providers.name(uint32(sym))] = core.NewUsageCurve(vals)
		}
	}
	return out
}

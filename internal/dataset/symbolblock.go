package dataset

import (
	"math"

	"github.com/webdep/webdep/internal/countries"
)

// SymbolColumn names one of the interned provider columns a SymbolBlock
// carries — the seven Website fields the scoring and graph tallies read.
type SymbolColumn int

const (
	SymHostProvider SymbolColumn = iota
	SymHostProviderCountry
	SymDNSProvider
	SymDNSProviderCountry
	SymCAOwner
	SymCAOwnerCountry
	SymTLD
	NumSymbolColumns
)

// NoSymbol is the ID no symbol has: tallies use it for "this name is not in
// the table (yet)". Symbol tables stay below it by construction.
const NoSymbol = math.MaxUint32

// SymbolBlock is a batch of website rows in interned form: each provider
// column holds one ID per row, and Names[id] is the string behind it. It is
// how the corpus store hands a shard to the tallies without building a
// Website — or any string — per row. Names is the stream's append-only
// table: across the blocks of one stream it only grows, so an ID means the
// same name in every block. The block and its columns are reused by the
// producer; a consumer must not retain them past the callback.
type SymbolBlock struct {
	Names []string
	Cols  [NumSymbolColumns][]uint32
}

// Rows returns the number of rows in the block.
func (b *SymbolBlock) Rows() int { return len(b.Cols[SymHostProvider]) }

// layerSymbols maps each layer to its provider column and, for the layers
// that have one, its provider-country column.
var layerSymbols = [numLayers]struct{ provider, country SymbolColumn }{
	countries.Hosting: {SymHostProvider, SymHostProviderCountry},
	countries.DNS:     {SymDNSProvider, SymDNSProviderCountry},
	countries.CA:      {SymCAOwner, SymCAOwnerCountry},
	countries.TLD:     {SymTLD, NumSymbolColumns},
}

// idTally is a CountryTally's accumulator for rows observed as symbol IDs:
// dense per-symbol counts indexed by the stream's IDs, folded into the
// name-keyed rawLayer tallies once the stream is done.
type idTally struct {
	names   []string // the stream's table as of the last block
	scanned int      // names already checked for empty and home
	empty   uint32   // ID of "", the unmeasured provider
	home    uint32   // ID of the tally's own country
	counts  [numLayers][]uint32
	total   [numLayers]int
	inside  [numLayers]int // rows whose provider country is home
}

// ObserveBlock folds a block of interned rows into the tally. It applies
// the rules Observe applies to a Website — an empty provider is skipped per
// layer, the TLD layer carries no insularity, a site is domestic only when
// the tally has a country and the provider's country equals it — on IDs
// instead of strings; TestObserveBlockMatchesObserve holds the two equal.
// Every block given to one tally must come from the same stream.
func (t *CountryTally) ObserveBlock(b *SymbolBlock) {
	if t.ids == nil {
		t.ids = &idTally{empty: NoSymbol, home: NoSymbol}
	}
	ids := t.ids
	ids.names = b.Names
	for ; ids.scanned < len(b.Names); ids.scanned++ {
		switch b.Names[ids.scanned] {
		case "":
			ids.empty = uint32(ids.scanned)
		case t.country:
			ids.home = uint32(ids.scanned)
		}
	}
	for l := range ids.counts {
		counts := ids.counts[l]
		if len(counts) < len(b.Names) {
			counts = append(counts, make([]uint32, len(b.Names)-len(counts))...)
			ids.counts[l] = counts
		}
		providers := b.Cols[layerSymbols[l].provider]
		if countries.Layer(l) == countries.TLD {
			for _, p := range providers {
				if p != ids.empty {
					counts[p]++
				}
			}
			continue
		}
		homes := b.Cols[layerSymbols[l].country]
		total, inside := 0, 0
		for i, p := range providers {
			if p == ids.empty {
				continue
			}
			counts[p]++
			total++
			if homes[i] == ids.home {
				inside++
			}
		}
		ids.total[l] += total
		ids.inside[l] += inside
	}
}

// fold moves the ID-keyed counts into the name-keyed tallies Observe
// writes, after which the tally no longer depends on the stream's table.
func (t *CountryTally) fold() {
	ids := t.ids
	if ids == nil {
		return
	}
	t.ids = nil
	for l := range ids.counts {
		raw := &t.raws[l]
		for id, n := range ids.counts[l] {
			if n > 0 {
				raw.counts[ids.names[id]] += n
			}
		}
		raw.ins.Total += float64(ids.total[l])
		raw.ins.Domestic += float64(ids.inside[l])
	}
}

package dataset

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/parallel"
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

// RowTable interns Website rows for a tally: each row's seven SymbolColumn
// fields become one row of a SymbolBlock over the table's own names, IDs in
// first-seen order. The table only grows, so the blocks one RowTable hands
// out form one stream, as a store shard's do, and each name has one ID. The
// zero value is ready to use; the returned block is reused by the next
// call. A RowTable is not safe for concurrent use.
type RowTable struct {
	ids   map[string]uint32
	block SymbolBlock
}

// Block interns w's symbol fields and returns them as a one-row block.
func (t *RowTable) Block(w *Website) *SymbolBlock {
	if len(t.block.Cols[0]) != 1 {
		t.resize(1)
	}
	t.intern(0, w)
	return &t.block
}

// Rows interns every row of ws, in order, and returns them as one block.
func (t *RowTable) Rows(ws []Website) *SymbolBlock {
	t.resize(len(ws))
	for i := range ws {
		t.intern(i, &ws[i])
	}
	return &t.block
}

// resize makes the block n rows long, reusing its columns where they fit.
func (t *RowTable) resize(n int) {
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	for c, col := range t.block.Cols {
		t.block.Cols[c] = slices.Grow(col[:0], n)[:n]
	}
}

// intern writes w's symbol IDs into row i of the block, naming each string
// not yet in the table with the next ID.
func (t *RowTable) intern(i int, w *Website) {
	for c, s := range [NumSymbolColumns]string{
		SymHostProvider: w.HostProvider, SymHostProviderCountry: w.HostProviderCountry,
		SymDNSProvider: w.DNSProvider, SymDNSProviderCountry: w.DNSProviderCountry,
		SymCAOwner: w.CAOwner, SymCAOwnerCountry: w.CAOwnerCountry,
		SymTLD: w.TLD,
	} {
		id, ok := t.ids[s]
		if !ok {
			id = uint32(len(t.block.Names))
			t.ids[s] = id
			t.block.Names = append(t.block.Names, s)
		}
		t.block.Cols[c][i] = id
	}
}

// Source is a corpus the tallies read as symbol blocks: a Corpus in memory
// or a corpus store on disk. Scan hands each country's rows, in order, as
// blocks of one stream, to the function observe returns for it; observe is
// called once per country — concurrently, up to workers at a time (0 means
// one per core), i indexing the sorted Countries() — and what it
// accumulates into must be the country's own. A block is reused.
type Source interface {
	Countries() []string
	Scan(workers int, observe func(i int, cc string) func(*SymbolBlock)) error
}

// Scan is the Source contract over the corpus's rows: each list, under its
// key in Lists, is interned by a RowTable of its own into one block, and a
// list with no sites hands over none, as an empty shard does. It never fails.
func (c *Corpus) Scan(workers int, observe func(i int, cc string) func(*SymbolBlock)) error {
	ccs := c.Countries()
	return parallel.ForEachIndexed(context.Background(), workers, len(ccs), func(_ context.Context, i int) error {
		block := observe(i, ccs[i])
		if sites := c.Lists[ccs[i]].Sites; len(sites) > 0 {
			block(new(RowTable).Rows(sites))
		}
		return nil
	})
}

// Observe folds one website row into the tally: the tally's RowTable
// interns it, and the one-row block that makes is observed under the same
// rules as a stored shard's blocks. It returns that block, for a caller
// that counts more of the row over the same IDs; the next call reuses it.
func (t *CountryTally) Observe(w *Website) *SymbolBlock {
	if t.table == nil {
		if t.names != nil {
			panic(fmt.Sprintf("dataset: tally for %q observed symbol blocks, then a Website row; a tally takes one kind of input", t.country))
		}
		t.table = new(RowTable)
	}
	b := t.table.Block(w)
	t.observe(b)
	return b
}

// ObserveBlock folds a block of interned rows into the tally. Every block
// given to one tally must come from the same stream, whose table only
// grows; a block whose table does not extend the last one, or a block after
// Website rows, panics rather than mix two ID tables.
func (t *CountryTally) ObserveBlock(b *SymbolBlock) {
	if t.table != nil {
		panic(fmt.Sprintf("dataset: tally for %q observed Website rows, then a symbol block; a tally takes one kind of input", t.country))
	}
	if len(b.Names) < len(t.names) || !slices.Equal(b.Names[:len(t.names)], t.names) {
		panic(fmt.Sprintf("dataset: tally for %q observed blocks from two streams; every block given to one tally must come from the same stream", t.country))
	}
	t.observe(b)
}

// observe applies the scoring rules to a block over the tally's table: an
// empty provider is not counted, and a site is domestic only when the tally
// has a country and the provider's country equals it. The TLD layer has no
// provider-country column; buildCol applies its insularity rule to the
// counted TLDs.
func (t *CountryTally) observe(b *SymbolBlock) {
	t.names = b.Names
	for ; t.scanned < len(b.Names); t.scanned++ {
		switch b.Names[t.scanned] {
		case "":
			t.empty = uint32(t.scanned)
		case t.country:
			t.home = uint32(t.scanned)
		}
	}
	for l := range t.counts {
		counts := t.counts[l]
		if len(counts) < len(b.Names) {
			counts = append(counts, make([]uint32, len(b.Names)-len(counts))...)
			t.counts[l] = counts
		}
		providers := b.Cols[layerSymbols[l].provider]
		if countries.Layer(l) == countries.TLD {
			for _, p := range providers {
				if p != t.empty {
					counts[p]++
				}
			}
			continue
		}
		homes := b.Cols[layerSymbols[l].country]
		total, inside := 0, 0
		for i, p := range providers {
			if p == t.empty {
				continue
			}
			counts[p]++
			total++
			if homes[i] == t.home {
				inside++
			}
		}
		t.total[l] += total
		t.inside[l] += inside
	}
}

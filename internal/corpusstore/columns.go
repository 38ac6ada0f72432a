package corpusstore

import "github.com/webdep/webdep/internal/dataset"

// colKind is how one block column is encoded on disk.
type colKind uint8

const (
	kindRank colKind = iota // one uvarint per row
	kindStr                 // one length-prefixed raw string per row
	kindSym                 // one uvarint symbol ID per row
	kindBool                // a bitset, one bit per row
)

// noSym marks a symbol column the symbol view has no slot for.
const noSym = dataset.NumSymbolColumns

// shardColumn describes one column of a row block: its encoding, the
// Website field it carries, and, for the provider columns the tallies read,
// its slot in a dataset.SymbolBlock.
type shardColumn struct {
	kind     colKind
	str      func(*dataset.Website) *string // kindStr and kindSym
	flag     func(*dataset.Website) *bool   // kindBool
	sym      dataset.SymbolColumn           // kindSym
	required bool                           // kindStr: an empty value is corruption
}

// shardColumns is the block layout, in format order: the writer encodes
// the columns and interns their symbols in this order, and the reader
// walks them in this order. Reordering or editing it is a format change.
var shardColumns = [...]shardColumn{
	{kind: kindRank},
	{kind: kindStr, str: func(w *dataset.Website) *string { return &w.Domain }, required: true},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.HostProvider }, sym: dataset.SymHostProvider},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.HostProviderCountry }, sym: dataset.SymHostProviderCountry},
	{kind: kindStr, str: func(w *dataset.Website) *string { return &w.HostIP }},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.HostIPContinent }, sym: noSym},
	{kind: kindBool, flag: func(w *dataset.Website) *bool { return &w.HostAnycast }},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.DNSProvider }, sym: dataset.SymDNSProvider},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.DNSProviderCountry }, sym: dataset.SymDNSProviderCountry},
	{kind: kindStr, str: func(w *dataset.Website) *string { return &w.NSIP }},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.NSIPContinent }, sym: noSym},
	{kind: kindBool, flag: func(w *dataset.Website) *bool { return &w.NSAnycast }},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.CAOwner }, sym: dataset.SymCAOwner},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.CAOwnerCountry }, sym: dataset.SymCAOwnerCountry},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.TLD }, sym: dataset.SymTLD},
	{kind: kindSym, str: func(w *dataset.Website) *string { return &w.Language }, sym: noSym},
}

// colAction is what the block parser does with one column's values.
type colAction uint8

const (
	actMaterialise colAction = iota // decode into the block's Website rows
	actCollect                      // kindSym only: hand the IDs out as a SymbolBlock column
	actSkip                         // validate exactly as the other two do, keep nothing
)

// blockView assigns an action to every column. The two views are the only
// ones; nothing outside this package selects columns.
type blockView [len(shardColumns)]colAction

var (
	// rowView materialises every column: StreamShard, ReadList, Load.
	rowView blockView
	// symbolView collects the provider columns and skips the rest:
	// Scan, and through it Score and depgraph.FromStore.
	symbolView = func() (v blockView) {
		for c, col := range shardColumns {
			v[c] = actSkip
			if col.kind == kindSym && col.sym != noSym {
				v[c] = actCollect
			}
		}
		return v
	}()
)

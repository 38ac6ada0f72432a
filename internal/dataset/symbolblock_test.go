package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// blockOf interns rows into a SymbolBlock over the stream's growing table,
// the way a store shard would: IDs in first-seen order, column by column.
func blockOf(ids map[string]uint32, names *[]string, rows []Website) *SymbolBlock {
	b := &SymbolBlock{}
	for c, field := range [NumSymbolColumns]func(*Website) string{
		SymHostProvider:        func(w *Website) string { return w.HostProvider },
		SymHostProviderCountry: func(w *Website) string { return w.HostProviderCountry },
		SymDNSProvider:         func(w *Website) string { return w.DNSProvider },
		SymDNSProviderCountry:  func(w *Website) string { return w.DNSProviderCountry },
		SymCAOwner:             func(w *Website) string { return w.CAOwner },
		SymCAOwnerCountry:      func(w *Website) string { return w.CAOwnerCountry },
		SymTLD:                 func(w *Website) string { return w.TLD },
	} {
		for i := range rows {
			s := field(&rows[i])
			id, ok := ids[s]
			if !ok {
				id = uint32(len(*names))
				ids[s] = id
				*names = append(*names, s)
			}
			b.Cols[c] = append(b.Cols[c], id)
		}
	}
	b.Names = *names
	return b
}

// TestObserveBlockMatchesObserve: rows observed as Websites (interned
// through the tally's RowTable) and as blocks of symbol IDs over one growing
// stream table must give the same score set. The rows are drawn so that IDs
// collide with the rules — empty providers, empty provider countries,
// providers and TLDs named like the country — over blocks small enough
// that "" and the country first appear in a late block, and for a tally
// whose own country is "", which the corpus store cannot hold.
func TestObserveBlockMatchesObserve(t *testing.T) {
	for _, country := range []string{"US", ""} {
		names := []string{"", "", "US", "DE", "Cloudflare", "Hetzner"}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pick := func() string { return names[rng.Intn(len(names))] }
			byRow, byBlock := NewCountryTally(country), NewCountryTally(country)
			ids, table := map[string]uint32{}, []string(nil)
			for blocks := 1 + rng.Intn(5); blocks > 0; blocks-- {
				rows := make([]Website, 1+rng.Intn(6))
				for i := range rows {
					rows[i] = Website{
						Country:      country,
						HostProvider: pick(), HostProviderCountry: pick(),
						DNSProvider: pick(), DNSProviderCountry: pick(),
						CAOwner: pick(), CAOwnerCountry: pick(),
						TLD: pick(),
					}
					byRow.Observe(&rows[i])
				}
				byBlock.ObserveBlock(blockOf(ids, &table, rows))
			}
			fromRows, err := BuildScoreSet([]*CountryTally{byRow})
			if err != nil {
				t.Fatal(err)
			}
			fromBlocks, err := BuildScoreSet([]*CountryTally{byBlock})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromBlocks, fromRows) {
				t.Fatalf("country %q seed %d: block tally\n %+v\nrow tally\n %+v", country, seed, fromBlocks.idx, fromRows.idx)
			}
		}
	}
}

// TestTallyRefusesMixedTables: a tally's IDs index one table, so feeding
// it rows and blocks, or blocks from two streams, must fail loudly rather
// than count one table's IDs under another's names. A block whose table
// extends the last one is the same stream and is taken.
func TestTallyRefusesMixedTables(t *testing.T) {
	rows := []Website{{HostProvider: "HostA", HostProviderCountry: "US", DNSProvider: "DNSX", TLD: "com"}}
	other := []Website{{HostProvider: "DNSX", HostProviderCountry: "DE", DNSProvider: "HostA", TLD: "com"}}
	stream := func(rows []Website) *SymbolBlock {
		var names []string
		return blockOf(map[string]uint32{}, &names, rows)
	}
	for name, feed := range map[string]func(*CountryTally){
		"rows then a block": func(tl *CountryTally) { tl.Observe(&rows[0]); tl.ObserveBlock(stream(rows)) },
		"a block then rows": func(tl *CountryTally) { tl.ObserveBlock(stream(rows)); tl.Observe(&rows[0]) },
		"two streams":       func(tl *CountryTally) { tl.ObserveBlock(stream(rows)); tl.ObserveBlock(stream(other)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `tally for "US"`) {
					t.Errorf("%s: recovered %q, want a panic naming the tally", name, msg)
				}
			}()
			feed(NewCountryTally("US"))
		}()
	}

	ids, names := map[string]uint32{}, []string(nil)
	tl := NewCountryTally("US")
	tl.ObserveBlock(blockOf(ids, &names, rows))
	tl.ObserveBlock(blockOf(ids, &names, other))
	if got := tl.total[0]; got != 2 {
		t.Fatalf("one stream in two blocks counted %d hosted rows, want 2", got)
	}
}

// TestBuildScoreSetRefusesDuplicateNames: a stream's table names each
// symbol once — a store writer makes it so and the store's decoder refuses
// a shard that does not — but a tally cannot tell. The index build must
// refuse a table that names one provider under two IDs rather than put the
// provider in one column twice.
func TestBuildScoreSetRefusesDuplicateNames(t *testing.T) {
	tl := NewCountryTally("US")
	tl.ObserveBlock(&SymbolBlock{
		Names: []string{"", "HostA", "HostA"},
		Cols: [NumSymbolColumns][]uint32{
			SymHostProvider: {1, 2}, SymHostProviderCountry: {0, 0},
			SymDNSProvider: {0, 0}, SymDNSProviderCountry: {0, 0},
			SymCAOwner: {0, 0}, SymCAOwnerCountry: {0, 0}, SymTLD: {0, 0},
		},
	})
	_, err := BuildScoreSet([]*CountryTally{tl})
	if err == nil || !strings.Contains(err.Error(), `"HostA" under two IDs`) {
		t.Fatalf("BuildScoreSet = %v, want the duplicate name refused", err)
	}
}

// TestRowTableIsOneStream: the blocks a RowTable hands out form one stream
// — each block's Names extends the last one's — and a string keeps its ID
// in every column and every later block.
func TestRowTableIsOneStream(t *testing.T) {
	var rt RowTable
	rows := []Website{
		{HostProvider: "HostA", HostProviderCountry: "US", DNSProvider: "HostA", TLD: "com"},
		{HostProvider: "DNSX", HostProviderCountry: "DE", CAOwner: "US", CAOwnerCountry: "US", TLD: "de"},
		{HostProvider: "HostA", HostProviderCountry: "US", DNSProvider: "DNSX", TLD: "com"},
	}
	var last []string
	for i := range rows {
		b := rt.Block(&rows[i])
		if b.Rows() != 1 {
			t.Fatalf("row %d: block of %d rows, want 1", i, b.Rows())
		}
		if len(b.Names) < len(last) || !slices.Equal(b.Names[:len(last)], last) {
			t.Fatalf("row %d: table %q does not extend %q", i, b.Names, last)
		}
		last = append([]string(nil), b.Names...)
		w := &rows[i]
		for c, want := range [NumSymbolColumns]string{
			SymHostProvider: w.HostProvider, SymHostProviderCountry: w.HostProviderCountry,
			SymDNSProvider: w.DNSProvider, SymDNSProviderCountry: w.DNSProviderCountry,
			SymCAOwner: w.CAOwner, SymCAOwnerCountry: w.CAOwnerCountry, SymTLD: w.TLD,
		} {
			if got := b.Names[b.Cols[c][0]]; got != want {
				t.Fatalf("row %d column %d: ID names %q, want %q", i, c, got, want)
			}
		}
	}
	if want := []string{"HostA", "US", "", "com", "DNSX", "DE", "de"}; !reflect.DeepEqual(last, want) {
		t.Fatalf("table %q, want each string once in first-seen order %q", last, want)
	}
}

package dataset

import (
	"math/rand"
	"reflect"
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

// TestObserveBlockMatchesObserve holds the tally's two representations of
// the skip rules equal: the same rows observed as Websites and as blocks of
// symbol IDs must leave identical tallies. The rows are drawn so that IDs
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
			byBlock.fold()
			if !reflect.DeepEqual(byBlock.raws, byRow.raws) {
				t.Fatalf("country %q seed %d: block tally\n %+v\nrow tally\n %+v", country, seed, byBlock.raws, byRow.raws)
			}
		}
	}
}

// TestObserveAfterBlocks: rows and blocks may feed one tally, and folding
// is idempotent — BuildScoreSet may run it again.
func TestObserveAfterBlocks(t *testing.T) {
	row := Website{Country: "US", HostProvider: "Hetzner", HostProviderCountry: "US", TLD: "com"}
	want := NewCountryTally("US")
	want.Observe(&row)
	want.Observe(&row)

	got := NewCountryTally("US")
	ids, table := map[string]uint32{}, []string(nil)
	got.ObserveBlock(blockOf(ids, &table, []Website{row}))
	got.Observe(&row)
	got.fold()
	got.fold()
	if !reflect.DeepEqual(got.raws, want.raws) {
		t.Fatalf("mixed tally %+v, want %+v", got.raws, want.raws)
	}
}

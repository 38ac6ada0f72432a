package geoip

import (
	"fmt"
	"net/netip"
	"testing"
)

func TestBasicLookup(t *testing.T) {
	db := New()
	if err := db.InsertString("10.0.0.0/8", Location{Country: "US", Continent: "NA"}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertString("10.200.0.0/16", Location{Country: "DE", Continent: "EU"}); err != nil {
		t.Fatal(err)
	}
	if loc, ok := db.LookupString("10.1.2.3"); !ok || loc.Country != "US" {
		t.Errorf("10.1.2.3 → %+v %v", loc, ok)
	}
	if loc, ok := db.LookupString("10.200.9.9"); !ok || loc.Country != "DE" || loc.Continent != "EU" {
		t.Errorf("10.200.9.9 → %+v %v", loc, ok)
	}
	if _, ok := db.LookupString("11.0.0.1"); ok {
		t.Error("uncovered address geolocated")
	}
	if _, ok := db.LookupString("garbage"); ok {
		t.Error("garbage IP geolocated")
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestErrorModelDeterministic(t *testing.T) {
	db := New()
	if err := db.InsertString("0.0.0.0/0", Location{Country: "US", Continent: "NA"}); err != nil {
		t.Fatal(err)
	}
	db.SetErrorModel(0.106, []Location{{Country: "CA", Continent: "NA"}, {Country: "MX", Continent: "NA"}})

	addr := netip.MustParseAddr("198.51.100.77")
	first, _ := db.Lookup(addr)
	for i := 0; i < 10; i++ {
		again, _ := db.Lookup(addr)
		if again != first {
			t.Fatal("error model not deterministic per address")
		}
	}
}

func TestErrorModelRate(t *testing.T) {
	db := New()
	if err := db.InsertString("0.0.0.0/0", Location{Country: "US", Continent: "NA"}); err != nil {
		t.Fatal(err)
	}
	db.SetErrorModel(0.106, []Location{{Country: "ZZ", Continent: "EU"}})

	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("%d.%d.%d.%d", 1+i%200, (i/200)%250, (i/50000)%250, i%250)
		loc, ok := db.LookupString(ip)
		if !ok {
			t.Fatal("lookup failed")
		}
		if loc.Country == "ZZ" {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.08 || rate > 0.14 {
		t.Errorf("observed error rate %v, want ≈0.106", rate)
	}
}

func TestErrorModelDisabling(t *testing.T) {
	db := New()
	if err := db.InsertString("0.0.0.0/0", Location{Country: "US"}); err != nil {
		t.Fatal(err)
	}
	// Invalid parameters must disable the model, not corrupt lookups.
	db.SetErrorModel(0.5, nil)
	if loc, _ := db.LookupString("1.2.3.4"); loc.Country != "US" {
		t.Error("model with no decoys should be disabled")
	}
	db.SetErrorModel(-1, []Location{{Country: "XX"}})
	if loc, _ := db.LookupString("1.2.3.4"); loc.Country != "US" {
		t.Error("negative rate should disable the model")
	}
	db.SetErrorModel(1.5, []Location{{Country: "XX"}})
	if loc, _ := db.LookupString("1.2.3.4"); loc.Country != "US" {
		t.Error("rate ≥ 1 should disable the model")
	}
}

func TestMislabelStillCovered(t *testing.T) {
	// Error model must only fire for addresses that were actually covered.
	db := New()
	if err := db.InsertString("10.0.0.0/8", Location{Country: "US"}); err != nil {
		t.Fatal(err)
	}
	db.SetErrorModel(0.9, []Location{{Country: "XX"}})
	if _, ok := db.LookupString("11.1.1.1"); ok {
		t.Error("uncovered address should stay uncovered under error model")
	}
}

// TestIndexMatchesLookup: with the error model on, an Index ID names the
// location Lookup returns — decoys included — and SetErrorModel after a
// lookup rebuilds the index.
func TestIndexMatchesLookup(t *testing.T) {
	db := New()
	if err := db.InsertString("10.0.0.0/8", Location{Country: "US", Continent: "NA"}); err != nil {
		t.Fatal(err)
	}
	db.Lookup(netip.MustParseAddr("10.0.0.1"))
	decoys := []Location{{Country: "TH", Continent: "AS"}, {Country: "BR", Continent: "SA"}}
	db.SetErrorModel(0.5, decoys)
	x, mislabeled := db.Index(), 0
	for i := 0; i < 200; i++ {
		addr := netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/10, i))
		want, _ := db.Lookup(addr)
		id := x.Lookup(addr)
		if id < 0 || x.Locations()[id] != want {
			t.Fatalf("%s: Lookup = %+v, Index ID %d", addr, want, id)
		}
		if want.Country != "US" {
			mislabeled++
		}
	}
	if mislabeled == 0 {
		t.Error("no lookup was mislabeled, so decoy IDs went untested")
	}
	if id := x.Lookup(netip.MustParseAddr("11.0.0.1")); id != -1 {
		t.Errorf("uncovered address: ID %d", id)
	}
}

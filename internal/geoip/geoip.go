// Package geoip is the toolkit's IP-geolocation database — the substitute
// for the NetAcuity feed the paper licenses. Lookups are longest-prefix
// matches over a prefix→location table; an optional deterministic error
// model reproduces the country-level inaccuracy of commercial geolocation
// (the paper cites 89.4% country accuracy for NetAcuity).
package geoip

import (
	"hash/fnv"
	"net/netip"
	"sync/atomic"

	"github.com/webdep/webdep/internal/iptrie"
)

// Location is a geolocation result.
type Location struct {
	Country   string // ISO 3166-1 alpha-2
	Continent string // AF, AS, EU, NA, OC, SA
}

// DB is a prefix-based geolocation database. Construct with New, populate
// with Insert, then query concurrently with Lookup.
type DB struct {
	trie *iptrie.Trie[Location]

	// errorRate in [0,1) is the probability a lookup is deliberately
	// mislabeled; mislabels are a deterministic function of the address so
	// repeated lookups agree, as a real (consistently wrong) database would.
	errorRate float64
	// decoys are the locations mislabeled lookups are drawn from.
	decoys []Location

	index atomic.Pointer[Index] // built on the first lookup after a change
}

// New returns an empty, perfectly accurate database.
func New() *DB {
	return &DB{trie: iptrie.New[Location]()}
}

// SetErrorModel enables deterministic mislabeling: approximately rate of
// lookups (by address hash) return a decoy location instead of the true
// one. A rate of 0.106 models NetAcuity's measured country-level error.
// Passing rate <= 0 or no decoys disables the model.
func (db *DB) SetErrorModel(rate float64, decoys []Location) {
	if rate <= 0 || rate >= 1 || len(decoys) == 0 {
		db.errorRate = 0
		db.decoys = nil
	} else {
		db.errorRate = rate
		db.decoys = append([]Location(nil), decoys...)
	}
	db.index.Store(nil)
}

// Insert registers a prefix's location.
func (db *DB) Insert(prefix netip.Prefix, loc Location) error {
	db.index.Store(nil)
	return db.trie.Insert(prefix, loc)
}

// InsertString registers a CIDR string's location.
func (db *DB) InsertString(cidr string, loc Location) error {
	db.index.Store(nil)
	return db.trie.InsertString(cidr, loc)
}

// Len reports the number of prefixes in the database.
func (db *DB) Len() int { return db.trie.Len() }

// Lookup geolocates an address. The boolean is false when no prefix covers
// it.
func (db *DB) Lookup(addr netip.Addr) (Location, bool) {
	x := db.Index()
	if id := x.Lookup(addr); id >= 0 {
		return x.locs[id], true
	}
	return Location{}, false
}

// Index is the database frozen for callers that geolocate many addresses:
// every answer a lookup can give — each prefix's location, then each
// decoy — has a dense ID, so a caller can keep its own per-location table
// indexed by ID. An Index is immutable.
type Index struct {
	prefixes  iptrie.Frozen[Location]
	locs      []Location // by ID: the prefixes' locations, then the decoys
	decoys    int
	errorRate float64
}

// Index returns the database's current Index, building it if the database
// changed since the last one.
func (db *DB) Index() *Index {
	if x := db.index.Load(); x != nil {
		return x
	}
	x := &Index{prefixes: db.trie.Freeze(), decoys: len(db.decoys), errorRate: db.errorRate}
	x.locs = append(append([]Location(nil), x.prefixes.Values()...), db.decoys...)
	db.index.Store(x)
	return x
}

// Locations returns the locations by ID. The caller must not modify it.
func (x *Index) Locations() []Location { return x.locs }

// Lookup returns the ID of addr's location — a decoy's when the error
// model mislabels it — or -1 when no prefix covers it.
func (x *Index) Lookup(addr netip.Addr) int32 {
	id := x.prefixes.Index(addr)
	if id >= 0 && x.errorRate > 0 && mislabels(addr, x.errorRate) {
		return int32(len(x.locs) - x.decoys + decoyFor(addr, x.decoys))
	}
	return id
}

// LookupString geolocates an IP given as a string.
func (db *DB) LookupString(ip string) (Location, bool) {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return Location{}, false
	}
	return db.Lookup(addr)
}

// mislabels reports whether the error model mislabels addr at the given
// rate.
func mislabels(addr netip.Addr, rate float64) bool {
	h := fnv.New64a()
	raw := addr.AsSlice()
	h.Write(raw)
	// Map the hash onto [0,1) and compare against the error rate.
	frac := float64(h.Sum64()%1_000_000) / 1_000_000
	return frac < rate
}

// decoyFor picks which of n decoys a mislabeled addr gets.
func decoyFor(addr netip.Addr, n int) int {
	h := fnv.New64a()
	h.Write([]byte("decoy"))
	h.Write(addr.AsSlice())
	return int(h.Sum64() % uint64(n))
}

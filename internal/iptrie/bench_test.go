package iptrie

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

func benchTrie(b *testing.B, prefixes int) *Trie[int] {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < prefixes; i++ {
		cidr := fmt.Sprintf("%d.%d.0.0/16", 10+rng.Intn(40), rng.Intn(256))
		if err := tr.InsertString(cidr, i); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

func BenchmarkLookup10kPrefixes(b *testing.B) {
	tr := benchTrie(b, 10000)
	addrs := make([]netip.Addr, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(10 + rng.Intn(40)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j := 0; j < 100; j++ {
			cidr := fmt.Sprintf("%d.%d.0.0/16", 10+rng.Intn(40), rng.Intn(256))
			if err := tr.InsertString(cidr, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLookupWorldShaped looks up 131,072 distinct addresses, one after
// another, in a table shaped like a generated world's: 3,000 provider /16s
// from 10.0.0.0 up, every third split into two /17 routes and every fifth
// carved into eight /19 continent buckets. Unlike the 1,024 cache-hot
// addresses of BenchmarkLookup10kPrefixes, each lookup walks a cold path
// through the table, as enrichment over a whole world does.
func BenchmarkLookupWorldShaped(b *testing.B) {
	tr := New[int]()
	const providers = 3000
	for i := 0; i < providers; i++ {
		base := [4]byte{byte(10 + i/256), byte(i % 256), 0, 0}
		insert := func(bits int, third byte) {
			p, err := netip.AddrFrom4([4]byte{base[0], base[1], third, 0}).Prefix(bits)
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.Insert(p, tr.Len()); err != nil {
				b.Fatal(err)
			}
		}
		insert(16, 0)
		if i%3 == 0 {
			insert(17, 0)
			insert(17, 128)
		}
		if i%5 == 0 {
			for bucket := 0; bucket < 8; bucket++ {
				insert(19, byte(32*bucket))
			}
		}
	}
	rng := rand.New(rand.NewSource(4))
	seen := map[netip.Addr]bool{}
	addrs := make([]netip.Addr, 0, 1<<17)
	for len(addrs) < cap(addrs) {
		i := rng.Intn(providers)
		a := netip.AddrFrom4([4]byte{byte(10 + i/256), byte(i % 256), byte(rng.Intn(256)), byte(rng.Intn(256))})
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	tr.Lookup(addrs[0]) // build the lookup form outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Lookup(addrs[i%len(addrs)]); !ok {
			b.Fatal("address outside every prefix")
		}
	}
}

package iptrie

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
)

func TestLongestPrefixWins(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "10.0.0.0/8", "big")
	mustInsert(t, tr, "10.1.0.0/16", "mid")
	mustInsert(t, tr, "10.1.2.0/24", "small")

	cases := []struct {
		ip, want string
	}{
		{"10.9.9.9", "big"},
		{"10.1.9.9", "mid"},
		{"10.1.2.9", "small"},
	}
	for _, c := range cases {
		got, ok := tr.LookupString(c.ip)
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q/%v, want %q", c.ip, got, ok, c.want)
		}
	}
	if _, ok := tr.LookupString("11.0.0.1"); ok {
		t.Error("uncovered address matched")
	}
}

func TestExactHostRoutes(t *testing.T) {
	tr := New[int]()
	mustInsert(t, tr, "192.0.2.1/32", 1)
	mustInsert(t, tr, "192.0.2.0/24", 2)
	if v, ok := tr.LookupString("192.0.2.1"); !ok || v != 1 {
		t.Errorf("host route: %v %v", v, ok)
	}
	if v, ok := tr.LookupString("192.0.2.2"); !ok || v != 2 {
		t.Errorf("covering route: %v %v", v, ok)
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "0.0.0.0/0", "default")
	mustInsert(t, tr, "203.0.113.0/24", "specific")
	if v, _ := tr.LookupString("8.8.8.8"); v != "default" {
		t.Errorf("default: %q", v)
	}
	if v, _ := tr.LookupString("203.0.113.7"); v != "specific" {
		t.Errorf("specific: %q", v)
	}
}

func TestIPv6Separate(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "2001:db8::/32", "v6net")
	mustInsert(t, tr, "32.1.13.0/24", "v4net") // same leading bytes as 2001:0db8
	if v, ok := tr.LookupString("2001:db8::1"); !ok || v != "v6net" {
		t.Errorf("v6 lookup: %q %v", v, ok)
	}
	if _, ok := tr.LookupString("2001:db9::1"); ok {
		t.Error("adjacent v6 prefix matched")
	}
	if v, ok := tr.LookupString("32.1.13.5"); !ok || v != "v4net" {
		t.Errorf("v4 lookup: %q %v", v, ok)
	}
}

func Test4In6Unmapped(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "198.51.100.0/24", "v4")
	addr := netip.MustParseAddr("::ffff:198.51.100.7")
	if v, ok := tr.Lookup(addr); !ok || v != "v4" {
		t.Errorf("4-in-6 lookup: %q %v", v, ok)
	}
}

func TestReplaceValue(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "10.0.0.0/8", "old")
	mustInsert(t, tr, "10.0.0.0/8", "new")
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	if v, _ := tr.LookupString("10.1.1.1"); v != "new" {
		t.Errorf("value not replaced: %q", v)
	}
}

func TestUnmaskedPrefixNormalized(t *testing.T) {
	tr := New[string]()
	// Host bits set — must be masked on insert.
	p := netip.MustParsePrefix("10.1.2.3/16")
	if err := tr.Insert(p, "x"); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.LookupString("10.1.200.200"); !ok || v != "x" {
		t.Errorf("masked insert: %q %v", v, ok)
	}
}

func TestInvalidInputs(t *testing.T) {
	tr := New[string]()
	if err := tr.InsertString("not-a-cidr", "x"); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := tr.Insert(netip.Prefix{}, "x"); err == nil {
		t.Error("zero prefix accepted")
	}
	if _, ok := tr.LookupString("not-an-ip"); ok {
		t.Error("bad IP matched")
	}
	if _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Error("zero addr matched")
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Error("empty trie has nonzero length")
	}
	if _, ok := tr.LookupString("1.2.3.4"); ok {
		t.Error("empty trie matched")
	}
}

// TestRandomizedAgainstLinearScanProperty checks lookups against a linear
// longest-match scan over a map of the prefixes inserted so far, in both
// families, with inserts interleaved with lookups (each insert changes the
// table the next lookup flattens), values replaced, every prefix length
// from /0 to the family's width, and addresses clustered near the bottom
// and top of the address space so prefixes nest, touch and reach the top.
func TestRandomizedAgainstLinearScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int]()
		ref := map[netip.Prefix]int{}
		check := func(addr netip.Addr) bool {
			bestBits, bestVal, found := -1, 0, false
			for p, v := range ref {
				if p.Contains(addr) && p.Bits() > bestBits {
					bestBits, bestVal, found = p.Bits(), v, true
				}
			}
			got, ok := tr.Lookup(addr)
			if ok != found || (found && got != bestVal) {
				t.Logf("seed %d: Lookup(%v) = %d/%v, want %d/%v", seed, addr, got, ok, bestVal, found)
				return false
			}
			if addr.Is4() {
				if got6, ok6 := tr.Lookup(netip.AddrFrom16(addr.As16())); ok6 != ok || got6 != got {
					t.Logf("seed %d: 4-in-6 %v looked up apart from %v", seed, netip.AddrFrom16(addr.As16()), addr)
					return false
				}
			}
			return true
		}
		for step := 0; step < 120; step++ {
			addr := clusteredAddr(rng)
			if rng.Intn(3) == 0 {
				var p netip.Prefix
				if rng.Intn(4) == 0 && len(ref) > 0 {
					for p = range ref { // replace an existing prefix's value
						break
					}
				} else {
					var err error
					if p, err = addr.Prefix(rng.Intn(addr.BitLen() + 1)); err != nil {
						return false
					}
				}
				if err := tr.Insert(p, step); err != nil {
					return false
				}
				ref[p] = step
				if tr.Len() != len(ref) {
					t.Logf("seed %d: Len = %d, want %d", seed, tr.Len(), len(ref))
					return false
				}
				continue
			}
			for i := 0; i < 4; i++ {
				if !check(clusteredAddr(rng)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// clusteredAddr draws an IPv4 or IPv6 address near one of a few anchors,
// the lowest and highest addresses among them, with a random number of low
// bits randomized.
func clusteredAddr(rng *rand.Rand) netip.Addr {
	if rng.Intn(2) == 0 {
		anchors := []uint32{0, ^uint32(0), 0x0a000000, 0x0a010000, 0xc0a80100}
		a := anchors[rng.Intn(len(anchors))] ^ rng.Uint32()&(^uint32(0)>>rng.Intn(33))
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], a)
		return netip.AddrFrom4(b)
	}
	anchors := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {0x20010db8 << 32, 0}, {0x20010db8<<32 | 1, ^uint64(0)}}
	a := anchors[rng.Intn(len(anchors))]
	if bits := rng.Intn(129); bits < 64 {
		a[0] ^= rng.Uint64() & (^uint64(0) >> bits)
		a[1] ^= rng.Uint64()
	} else {
		a[1] ^= rng.Uint64() & (^uint64(0) >> (bits - 64))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], a[0])
	binary.BigEndian.PutUint64(b[8:], a[1])
	addr := netip.AddrFrom16(b)
	if addr.Is4In6() {
		return addr.Unmap() // the v4 half draws these
	}
	return addr
}

func mustInsert[V any](t *testing.T, tr *Trie[V], cidr string, v V) {
	t.Helper()
	if err := tr.InsertString(cidr, v); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstLookups: the first lookups after an insert build the
// lookup form; run under -race, concurrent ones must neither race nor see
// a half-built table.
func TestConcurrentFirstLookups(t *testing.T) {
	tr := New[string]()
	mustInsert(t, tr, "10.0.0.0/8", "big")
	mustInsert(t, tr, "10.1.0.0/16", "mid")
	mustInsert(t, tr, "2001:db8::/32", "v6net")
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, ok := tr.LookupString("10.1.2.3"); !ok || v != "mid" {
					t.Errorf("v4 lookup: %q %v", v, ok)
				}
				if v, ok := tr.LookupString("2001:db8::1"); !ok || v != "v6net" {
					t.Errorf("v6 lookup: %q %v", v, ok)
				}
			}()
		}
		wg.Wait()
		mustInsert(t, tr, "10.1.0.0/16", "replaced")
		if v, _ := tr.LookupString("10.1.2.3"); v != "replaced" {
			t.Fatalf("lookup after a replacing insert: %q", v)
		}
		mustInsert(t, tr, "10.1.0.0/16", "mid")
	}
}

// TestFrozenIndexMatchesLookup: a Frozen's Index positions name the value
// Lookup returns, -1 where Lookup finds none, and a Frozen taken before an
// Insert keeps answering as the table was.
func TestFrozenIndexMatchesLookup(t *testing.T) {
	tr := New[string]()
	for cidr, v := range map[string]string{"10.0.0.0/8": "a", "10.1.0.0/16": "b", "2001:db8::/32": "c"} {
		if err := tr.InsertString(cidr, v); err != nil {
			t.Fatal(err)
		}
	}
	z := tr.Freeze()
	for _, ip := range []string{"10.2.3.4", "10.1.2.3", "11.0.0.1", "2001:db8::1", "::ffff:10.1.0.1", "2001:db9::1"} {
		addr := netip.MustParseAddr(ip)
		want, ok := tr.Lookup(addr)
		switch i := z.Index(addr); {
		case !ok && i != -1:
			t.Errorf("%s: Lookup finds nothing, Index = %d", ip, i)
		case ok && (i < 0 || z.Values()[i] != want):
			t.Errorf("%s: Lookup = %q, Index = %d", ip, want, i)
		}
	}
	if i := z.Index(netip.Addr{}); i != -1 {
		t.Errorf("Index of the zero Addr = %d", i)
	}
	if err := tr.InsertString("11.0.0.0/8", "d"); err != nil {
		t.Fatal(err)
	}
	if i := z.Index(netip.MustParseAddr("11.0.0.1")); i != -1 {
		t.Errorf("a Frozen taken before an Insert finds its prefix at %d", i)
	}
	if v, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); !ok || v != "d" {
		t.Errorf("Lookup after Insert = %q %v", v, ok)
	}
}

// Package iptrie provides longest-prefix-match lookup over IP prefixes,
// the lookup structure behind the toolkit's geolocation (NetAcuity
// substitute), prefix→AS (pfx2as substitute), and anycast-prefix
// databases.
//
// A table keeps the prefixes it was given and, on the first lookup after a
// change, flattens each address family (IPv4 and IPv6 apart, as routing
// tables do) into sorted, non-overlapping address ranges, each carrying
// the value of the longest prefix that covers it. A lookup is then one
// binary search over the range starts: uint32 keys for IPv4, [2]uint64
// for IPv6. An IPv4 search starts from the few ranges that meet the
// address's /16, found in an index with one entry per /16.
package iptrie

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
)

// Trie maps IP prefixes to values with longest-prefix-match lookup. The
// zero value is an empty table ready to use. Trie is not safe for
// concurrent mutation; concurrent lookups after construction are safe,
// the first one included.
type Trie[V any] struct {
	prefixes map[netip.Prefix]V // masked prefix → value
	flat     atomic.Pointer[flatTables[V]]
}

// flatTables is a Trie's lookup form, built from its prefixes on the first
// Lookup after a change.
type flatTables[V any] struct {
	v4 ranges[uint32]
	// v4By16[h] counts the v4 range starts at or below h<<16, for h in
	// [0, 65536], so the range holding an address of /16 h is one of
	// v4.starts[v4By16[h]-1 : v4By16[h+1]]. It is nil when no v4 prefix
	// was inserted (the family is then one range).
	v4By16 []uint32
	v6     ranges[[2]uint64]
	values []V // indexed by ranges.idx
}

// ranges covers a whole address family with sorted, non-overlapping
// ranges, each running from its start to the next one's (the last to the
// top of the family; the first starts at the family's first address).
// starts holds the range starts and idx the index of each range's value in
// flatTables.values, or -1 where no prefix covers it.
type ranges[K any] struct {
	starts []K
	idx    []int32
}

// New returns an empty trie.
func New[V any]() *Trie[V] { return &Trie[V]{} }

// Len reports the number of inserted prefixes.
func (t *Trie[V]) Len() int { return len(t.prefixes) }

// Insert associates the prefix with the value, replacing any existing value
// for exactly that prefix. It returns an error for invalid prefixes.
func (t *Trie[V]) Insert(prefix netip.Prefix, value V) error {
	if !prefix.IsValid() {
		return fmt.Errorf("iptrie: invalid prefix %v", prefix)
	}
	if t.prefixes == nil {
		t.prefixes = map[netip.Prefix]V{}
	}
	t.prefixes[prefix.Masked()] = value
	t.flat.Store(nil)
	return nil
}

// InsertString parses a CIDR string and inserts it.
func (t *Trie[V]) InsertString(cidr string, value V) error {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return fmt.Errorf("iptrie: %w", err)
	}
	return t.Insert(p, value)
}

// Lookup returns the value of the longest matching prefix for the address.
// The boolean is false when no prefix covers the address.
func (t *Trie[V]) Lookup(addr netip.Addr) (V, bool) {
	f := t.Freeze().f
	if i := f.index(addr); i >= 0 {
		return f.values[i], true
	}
	var zero V
	return zero, false
}

// Frozen is a trie's lookup form as of one moment, for callers that join
// many addresses against one table: Index yields the position of an
// address's value in Values, so a caller can keep its own dense table
// beside Values and never copy a value out per lookup. A Frozen stays valid
// (and unchanged) after the trie is changed; it just no longer reflects it.
type Frozen[V any] struct{ f *flatTables[V] }

// Freeze returns the trie's current lookup form, building it if a change
// came after the last one.
func (t *Trie[V]) Freeze() Frozen[V] {
	f := t.flat.Load()
	if f == nil {
		f = t.flatten()
	}
	return Frozen[V]{f}
}

// Values returns the values Index positions refer to, one per inserted
// prefix. The caller must not modify it.
func (z Frozen[V]) Values() []V { return z.f.values }

// Index returns the position in Values of the longest matching prefix's
// value for the address, or -1 when no prefix covers it.
func (z Frozen[V]) Index(addr netip.Addr) int32 { return z.f.index(addr) }

func (f *flatTables[V]) index(addr netip.Addr) int32 {
	if !addr.IsValid() {
		return -1
	}
	a := addr.As16()
	// 4-in-6 addresses are unmapped so ::ffff:a.b.c.d hits the v4 table.
	if addr.Is4() || addr.Is4In6() {
		return f.v4.idx[search4(f.v4.starts, f.v4By16, binary.BigEndian.Uint32(a[12:]))]
	}
	return f.v6.idx[search6(f.v6.starts, [2]uint64{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])})]
}

// LookupString parses an IP address and looks it up.
func (t *Trie[V]) LookupString(ip string) (V, bool) {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		var zero V
		return zero, false
	}
	return t.Lookup(addr)
}

// search4 returns the largest i with starts[i] <= key; starts[0] is 0, so
// there always is one. by16, when not nil, narrows the search to the ranges
// that meet key's /16. The loop runs log2 of the window's length times and
// has no branch on the comparison: ge is 1 when starts[i+half] <= key,
// because the 64-bit difference only wraps (setting its top bit) when the
// start is above the key.
func search4(starts, by16 []uint32, key uint32) int {
	i, n := uint(0), uint(len(starts))
	if by16 != nil {
		h := key >> 16
		i = uint(by16[h]) - 1
		n = uint(by16[h+1]) - i
	}
	for n > 1 {
		half := n / 2
		ge := 1 - (uint64(key)-uint64(starts[i+half]))>>63
		i += half & -uint(ge)
		n -= half
	}
	return int(i)
}

// search6 is search4 over IPv6 keys (high and low 64 bits), with no index.
func search6(starts [][2]uint64, key [2]uint64) int {
	i, n := 0, len(starts)
	for n > 1 {
		half := n / 2
		if s := starts[i+half]; s[0] < key[0] || s[0] == key[0] && s[1] <= key[1] {
			i += half
		}
		n -= half
	}
	return i
}

// flatten builds and publishes the lookup form of t's prefixes.
// Concurrent first lookups may each build and publish one; every build is
// equal, so each caller uses its own.
func (t *Trie[V]) flatten() *flatTables[V] {
	var v4 []span[uint32]
	var v6 []span[[2]uint64]
	for p := range t.prefixes {
		a, bits := p.Addr().As16(), p.Bits()
		if p.Addr().Is4() {
			lo := binary.BigEndian.Uint32(a[12:])
			v4 = append(v4, span[uint32]{lo: lo, hi: lo | ^uint32(0)>>bits, bits: bits, p: p})
			continue
		}
		lo := [2]uint64{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:])}
		hi := lo
		if bits <= 64 {
			hi = [2]uint64{lo[0] | ^uint64(0)>>bits, ^uint64(0)}
		} else {
			hi[1] |= ^uint64(0) >> (bits - 64)
		}
		v6 = append(v6, span[[2]uint64]{lo: lo, hi: hi, bits: bits, p: p})
	}
	f := &flatTables[V]{}
	f.v4 = flattenFamily(t, f, v4, cmp.Compare[uint32], ^uint32(0), func(k uint32) uint32 { return k + 1 })
	if len(v4) > 0 {
		f.v4By16 = make([]uint32, 1<<16+1)
		j := 0
		for h := range f.v4By16 {
			for j < len(f.v4.starts) && uint64(f.v4.starts[j]) <= uint64(h)<<16 {
				j++
			}
			f.v4By16[h] = uint32(j)
		}
	}
	f.v6 = flattenFamily(t, f, v6, compare6, [2]uint64{^uint64(0), ^uint64(0)}, func(k [2]uint64) [2]uint64 {
		if k[1]++; k[1] == 0 {
			k[0]++
		}
		return k
	})
	t.flat.Store(f)
	return f
}

func compare6(a, b [2]uint64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// span is one prefix as the inclusive address range [lo, hi].
type span[K any] struct {
	lo, hi K
	bits   int
	p      netip.Prefix
}

// flattenFamily turns one family's prefixes into ranges, appending their
// values to f.values. Prefixes either nest or are disjoint, so after
// sorting by start (a shorter prefix before the longer ones it contains)
// one sweep with a stack of the prefixes covering the cursor gives every
// address the innermost one. last is the family's top address and succ is
// k+1, never asked of last.
func flattenFamily[K comparable, V any](t *Trie[V], f *flatTables[V], spans []span[K], compare func(a, b K) int, last K, succ func(K) K) ranges[K] {
	slices.SortFunc(spans, func(a, b span[K]) int {
		if c := compare(a.lo, b.lo); c != 0 {
			return c
		}
		return a.bits - b.bits
	})
	var r ranges[K]
	// emit starts a range at start; starts never decrease.
	emit := func(start K, idx int32) {
		n := len(r.starts)
		if n > 0 && r.starts[n-1] == start {
			n-- // the range before is empty: replace it
			r.starts, r.idx = r.starts[:n], r.idx[:n]
		}
		if n > 0 && r.idx[n-1] == idx {
			return // the range before has the same value: extend it
		}
		r.starts = append(r.starts, start)
		r.idx = append(r.idx, idx)
	}
	type open struct {
		hi  K
		idx int32
	}
	var stack []open
	// pop closes the innermost open prefix; the addresses after it belong
	// to the one under it, or to none.
	pop := func() {
		end := stack[len(stack)-1].hi
		stack = stack[:len(stack)-1]
		under := int32(-1)
		if len(stack) > 0 {
			under = stack[len(stack)-1].idx
		}
		emit(succ(end), under)
	}
	var zero K
	emit(zero, -1)
	for _, s := range spans {
		for len(stack) > 0 && compare(stack[len(stack)-1].hi, s.lo) < 0 {
			pop()
		}
		idx := int32(len(f.values))
		f.values = append(f.values, t.prefixes[s.p])
		stack = append(stack, open{s.hi, idx})
		emit(s.lo, idx)
	}
	// A prefix reaching the family's top address ends the sweep: every
	// prefix under it reaches the top too.
	for len(stack) > 0 && stack[len(stack)-1].hi != last {
		pop()
	}
	return r
}

package corpusstore

import (
	"fmt"
	"net/netip"

	"github.com/webdep/webdep/internal/dataset"
)

// Rows is one country's rows in the shape the shard encoder reads: a slice
// per column, the two addresses as text in an AddrColumn each, and each of
// the ten symbol columns as IDs into Names. The encoder maps those IDs to
// the shard's own symbol IDs through a slice, so it hashes no string per
// row, and copies each address's text into the block. A Rows holds the
// fields of dataset.Website but Country, which is the shard's;
// Writer.AppendRows takes it and AppendList builds one from a list.
//
// Names is a dictionary: each ID is one name, and no name may appear under
// two IDs (the shard's symbol table names each string once). It may hold
// names no row uses; only the used ones reach the shard, in the order the
// columns first use them.
type Rows struct {
	Names []string

	Rank         []int
	Domain       []string
	HostIP, NSIP AddrColumn

	HostAnycast, NSAnycast []bool

	HostProvider, HostProviderCountry, HostIPContinent []uint32
	DNSProvider, DNSProviderCountry, NSIPContinent     []uint32
	CAOwner, CAOwnerCountry, TLD, Language             []uint32
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Rank) }

// Resize makes every column but the two address columns n rows long,
// keeping the backing arrays when they are large enough; rows it keeps or
// adds hold stale or zero values until the caller fills them. It empties
// the address columns, which the caller then appends n rows to, in row
// order.
func (r *Rows) Resize(n int) {
	resize(&r.Rank, n)
	resize(&r.Domain, n)
	r.HostIP.reset(n)
	r.NSIP.reset(n)
	resize(&r.HostAnycast, n)
	resize(&r.NSAnycast, n)
	for _, ids := range []*[]uint32{
		&r.HostProvider, &r.HostProviderCountry, &r.HostIPContinent,
		&r.DNSProvider, &r.DNSProviderCountry, &r.NSIPContinent,
		&r.CAOwner, &r.CAOwnerCountry, &r.TLD, &r.Language,
	} {
		resize(ids, n)
	}
}

func resize[T any](s *[]T, n int) {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
}

// AddrColumn is an address column: each row's text, end to end in one
// reused buffer, so filling it makes no string per row. The ingest formats
// an address into it with netip.Addr.AppendTo; AppendList copies a
// Website's text in as it is.
type AddrColumn struct {
	text []byte
	ends []int // ends[i] is where row i's text ends in text
}

// AppendAddr appends a's text as the next row: what netip.Addr.String
// writes, or nothing for the zero Addr (no address).
func (c *AddrColumn) AppendAddr(a netip.Addr) {
	c.text = a.AppendTo(c.text)
	c.ends = append(c.ends, len(c.text))
}

// Len returns the number of rows appended.
func (c *AddrColumn) Len() int { return len(c.ends) }

func (c *AddrColumn) appendText(s string) {
	c.text = append(c.text, s...)
	c.ends = append(c.ends, len(c.text))
}

// reset empties the column and sizes it for n rows of up to addrTextHint
// bytes, so filling it does not grow its buffers row by row.
func (c *AddrColumn) reset(n int) {
	if cap(c.ends) < n {
		c.ends = make([]int, 0, n)
	}
	if cap(c.text) < n*addrTextHint {
		c.text = make([]byte, 0, n*addrTextHint)
	}
	c.text, c.ends = c.text[:0], c.ends[:0]
}

// addrTextHint is a row's share of an address column's buffer: the
// longest IPv4 text, "255.255.255.255", is 15 bytes, and a longer address
// only grows the buffer.
const addrTextHint = 16

// at returns row i's text.
func (c *AddrColumn) at(i int) []byte {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.text[start:c.ends[i]]
}

// check refuses rows the encoder could not write, or the decoder would
// refuse: columns of unequal length, an empty domain, a symbol ID outside
// Names.
func (r *Rows) check(cc string) error {
	n := r.Len()
	for c := range shardColumns {
		col := &shardColumns[c]
		var size int
		switch {
		case col.kind == kindRank:
			continue
		case col.text != nil:
			size = len(col.text(r))
		case col.addr != nil:
			size = col.addr(r).Len()
		case col.bits != nil:
			size = len(col.bits(r))
		case col.ids != nil:
			ids := col.ids(r)
			size = len(ids)
			for _, id := range ids {
				if int(id) >= len(r.Names) {
					return fmt.Errorf("corpusstore: shard %s: symbol ID %d outside a dictionary of %d names", cc, id, len(r.Names))
				}
			}
		}
		if size != n {
			return fmt.Errorf("corpusstore: shard %s: a column of %d rows beside %d ranks", cc, size, n)
		}
	}
	for _, d := range r.Domain {
		if d == "" {
			return fmt.Errorf("corpusstore: shard %s: row with empty domain", cc)
		}
	}
	return nil
}

// listRows is the Website path into the encoder's one input shape: it
// fills the encoder's own Rows from sites, interning the symbol fields into
// a dictionary of the list's names and copying each address's text. It
// reads each row once.
func (e *shardEncoder) listRows(cc string, sites []dataset.Website) (*Rows, error) {
	r := &e.list
	r.Resize(len(sites))
	r.Names = r.Names[:0]
	if e.dict == nil {
		e.dict = map[string]uint32{}
	} else {
		clear(e.dict)
	}
	// The last name each symbol column interned: a row repeats the row
	// before's value often (a language, a provider's country), and
	// comparing strings is cheaper than a map lookup.
	var last [10]struct {
		s    string
		id   uint32
		seen bool
	}
	name := func(c int, s string) uint32 {
		if l := &last[c]; !l.seen || s != l.s {
			l.s, l.id, l.seen = s, e.name(s), true
		}
		return last[c].id
	}
	for i := range sites {
		site := &sites[i]
		if site.Country != cc {
			return nil, fmt.Errorf("corpusstore: row for %q appended to shard %s", site.Country, cc)
		}
		r.Rank[i], r.Domain[i] = site.Rank, site.Domain
		r.HostAnycast[i], r.NSAnycast[i] = site.HostAnycast, site.NSAnycast
		r.HostIP.appendText(site.HostIP)
		r.NSIP.appendText(site.NSIP)
		r.HostProvider[i] = name(0, site.HostProvider)
		r.HostProviderCountry[i] = name(1, site.HostProviderCountry)
		r.HostIPContinent[i] = name(2, site.HostIPContinent)
		r.DNSProvider[i] = name(3, site.DNSProvider)
		r.DNSProviderCountry[i] = name(4, site.DNSProviderCountry)
		r.NSIPContinent[i] = name(5, site.NSIPContinent)
		r.CAOwner[i] = name(6, site.CAOwner)
		r.CAOwnerCountry[i] = name(7, site.CAOwnerCountry)
		r.TLD[i] = name(8, site.TLD)
		r.Language[i] = name(9, site.Language)
	}
	return r, nil
}

// name returns s's ID in the Website path's dictionary, adding it on first
// sight.
func (e *shardEncoder) name(s string) uint32 {
	if id, ok := e.dict[s]; ok {
		return id
	}
	id := uint32(len(e.list.Names))
	e.dict[s] = id
	e.list.Names = append(e.list.Names, s)
	return id
}

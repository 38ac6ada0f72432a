// Package pfx2as maps IP prefixes to origin autonomous systems and ASNs to
// organizations — the substitute for CAIDA's Routeviews prefix-to-AS and
// AS-to-Organization datasets the paper uses to label hosting and DNS
// providers.
package pfx2as

import (
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"

	"github.com/webdep/webdep/internal/iptrie"
)

// Org is an autonomous-system organization: the entity the paper treats as
// "the provider".
type Org struct {
	Name    string
	Country string // H.Q. country (ISO alpha-2)
}

// Table joins the prefix→ASN route table with the ASN→organization
// registry. Construct with New, populate, then query concurrently.
type Table struct {
	routes *iptrie.Trie[int]
	orgs   map[int]Org
	index  atomic.Pointer[Index] // built on the first lookup after a change
}

// New returns an empty table.
func New() *Table {
	return &Table{routes: iptrie.New[int](), orgs: make(map[int]Org)}
}

// AddRoute announces a prefix as originated by the ASN.
func (t *Table) AddRoute(prefix netip.Prefix, asn int) error {
	if asn <= 0 {
		return fmt.Errorf("pfx2as: invalid ASN %d", asn)
	}
	t.index.Store(nil)
	return t.routes.Insert(prefix, asn)
}

// AddRouteString announces a CIDR string as originated by the ASN.
func (t *Table) AddRouteString(cidr string, asn int) error {
	if asn <= 0 {
		return fmt.Errorf("pfx2as: invalid ASN %d", asn)
	}
	t.index.Store(nil)
	return t.routes.InsertString(cidr, asn)
}

// RegisterOrg associates an ASN with its organization. Multiple ASNs may
// map to one organization, as with real AS-to-Org data (e.g. an
// organization operating separate transit and hosting ASNs).
func (t *Table) RegisterOrg(asn int, org Org) error {
	if asn <= 0 {
		return fmt.Errorf("pfx2as: invalid ASN %d", asn)
	}
	if org.Name == "" {
		return fmt.Errorf("pfx2as: empty organization for AS%d", asn)
	}
	t.orgs[asn] = org
	t.index.Store(nil)
	return nil
}

// OriginASN returns the origin ASN for an address via longest-prefix match.
func (t *Table) OriginASN(addr netip.Addr) (int, bool) {
	return t.routes.Lookup(addr)
}

// LookupOrg resolves an address all the way to its serving organization:
// longest-prefix match to ASN, then registry join. The boolean is false
// when either step fails (unrouted space or unregistered ASN).
func (t *Table) LookupOrg(addr netip.Addr) (Org, bool) {
	x := t.Index()
	if id := x.Lookup(addr); id >= 0 {
		return x.orgs[id], true
	}
	return Org{}, false
}

// Index is a Table with both joins done ahead of time, for callers that
// attribute many addresses: every route already knows its organization,
// and organizations have dense IDs, so a lookup is one range search and no
// registry probe, and a caller can keep its own per-organization table
// indexed by ID. An Index is immutable.
type Index struct {
	routes   iptrie.Frozen[int]
	routeOrg []int32 // per route value: its ASN's organization ID, or -1
	orgs     []Org   // by ID: the registered organizations in ASN order
}

// Index returns the table's current Index, building it if the table changed
// since the last one.
func (t *Table) Index() *Index {
	if x := t.index.Load(); x != nil {
		return x
	}
	asns := make([]int, 0, len(t.orgs))
	for asn := range t.orgs {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	x := &Index{routes: t.routes.Freeze(), orgs: make([]Org, len(asns))}
	id := make(map[int]int32, len(asns))
	for i, asn := range asns {
		x.orgs[i], id[asn] = t.orgs[asn], int32(i)
	}
	values := x.routes.Values()
	x.routeOrg = make([]int32, len(values))
	for i, asn := range values {
		if o, ok := id[asn]; ok {
			x.routeOrg[i] = o
		} else {
			x.routeOrg[i] = -1
		}
	}
	t.index.Store(x)
	return x
}

// Orgs returns the organizations by ID. The caller must not modify it.
func (x *Index) Orgs() []Org { return x.orgs }

// Lookup returns the ID of the organization serving addr, or -1 when its
// space is unrouted or its ASN unregistered.
func (x *Index) Lookup(addr netip.Addr) int32 {
	if r := x.routes.Index(addr); r >= 0 {
		return x.routeOrg[r]
	}
	return -1
}

// LookupOrgString is LookupOrg over a string address.
func (t *Table) LookupOrgString(ip string) (Org, bool) {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return Org{}, false
	}
	return t.LookupOrg(addr)
}

// Routes reports the number of announced prefixes.
func (t *Table) Routes() int { return t.routes.Len() }

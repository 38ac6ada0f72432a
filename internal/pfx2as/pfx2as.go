// Package pfx2as maps IP prefixes to origin autonomous systems and ASNs to
// organizations — the substitute for CAIDA's Routeviews prefix-to-AS and
// AS-to-Organization datasets the paper uses to label hosting and DNS
// providers.
package pfx2as

import (
	"fmt"
	"net/netip"

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
	return t.routes.Insert(prefix, asn)
}

// AddRouteString announces a CIDR string as originated by the ASN.
func (t *Table) AddRouteString(cidr string, asn int) error {
	if asn <= 0 {
		return fmt.Errorf("pfx2as: invalid ASN %d", asn)
	}
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
	return nil
}

// OriginASN returns the origin ASN for an address via longest-prefix match.
func (t *Table) OriginASN(addr netip.Addr) (int, bool) {
	return t.routes.Lookup(addr)
}

// Org returns the organization registered for an ASN.
func (t *Table) Org(asn int) (Org, bool) {
	o, ok := t.orgs[asn]
	return o, ok
}

// LookupOrg resolves an address all the way to its serving organization:
// longest-prefix match to ASN, then registry join. The boolean is false
// when either step fails (unrouted space or unregistered ASN).
func (t *Table) LookupOrg(addr netip.Addr) (Org, bool) {
	asn, ok := t.routes.Lookup(addr)
	if !ok {
		return Org{}, false
	}
	return t.Org(asn)
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

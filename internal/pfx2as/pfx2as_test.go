package pfx2as

import (
	"net/netip"
	"testing"
)

func TestLookupOrgJoin(t *testing.T) {
	tbl := New()
	if err := tbl.AddRouteString("104.16.0.0/13", 13335); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterOrg(13335, Org{Name: "Cloudflare", Country: "US"}); err != nil {
		t.Fatal(err)
	}
	org, ok := tbl.LookupOrgString("104.16.132.229")
	if !ok || org.Name != "Cloudflare" || org.Country != "US" {
		t.Errorf("LookupOrg = %+v %v", org, ok)
	}
}

func TestLongestPrefixSelectsOrigin(t *testing.T) {
	tbl := New()
	if err := tbl.AddRouteString("10.0.0.0/8", 100); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRouteString("10.5.0.0/16", 200); err != nil {
		t.Fatal(err)
	}
	if asn, _ := tbl.OriginASN(netip.MustParseAddr("10.5.1.1")); asn != 200 {
		t.Errorf("more-specific origin = %d", asn)
	}
	if asn, _ := tbl.OriginASN(netip.MustParseAddr("10.6.1.1")); asn != 100 {
		t.Errorf("covering origin = %d", asn)
	}
}

func TestUnroutedAndUnregistered(t *testing.T) {
	tbl := New()
	if err := tbl.AddRouteString("10.0.0.0/8", 100); err != nil {
		t.Fatal(err)
	}
	// Routed but unregistered ASN.
	if _, ok := tbl.LookupOrgString("10.1.1.1"); ok {
		t.Error("unregistered ASN produced an org")
	}
	// Unrouted space.
	if _, ok := tbl.LookupOrgString("11.1.1.1"); ok {
		t.Error("unrouted space produced an org")
	}
	// Garbage address.
	if _, ok := tbl.LookupOrgString("nope"); ok {
		t.Error("garbage address produced an org")
	}
}

func TestMultipleASNsOneOrg(t *testing.T) {
	tbl := New()
	for _, asn := range []int{16509, 14618} { // Amazon's real-world pattern
		if err := tbl.RegisterOrg(asn, Org{Name: "Amazon", Country: "US"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AddRouteString("52.0.0.0/8", 16509); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRouteString("3.0.0.0/8", 14618); err != nil {
		t.Fatal(err)
	}
	a, _ := tbl.LookupOrgString("52.1.1.1")
	b, _ := tbl.LookupOrgString("3.1.1.1")
	if a.Name != "Amazon" || b.Name != "Amazon" {
		t.Errorf("orgs: %+v %+v", a, b)
	}
	if orgs := tbl.Index().Orgs(); len(orgs) != 2 {
		t.Errorf("%d organizations registered, want one per ASN: %+v", len(orgs), orgs)
	}
}

func TestValidation(t *testing.T) {
	tbl := New()
	if err := tbl.AddRouteString("10.0.0.0/8", 0); err == nil {
		t.Error("ASN 0 accepted")
	}
	if err := tbl.AddRoute(netip.MustParsePrefix("10.0.0.0/8"), -5); err == nil {
		t.Error("negative ASN accepted")
	}
	if err := tbl.RegisterOrg(0, Org{Name: "x"}); err == nil {
		t.Error("org for ASN 0 accepted")
	}
	if err := tbl.RegisterOrg(5, Org{}); err == nil {
		t.Error("empty org name accepted")
	}
	if err := tbl.AddRouteString("bad", 5); err == nil {
		t.Error("bad CIDR accepted")
	}
	if tbl.Routes() != 0 {
		t.Errorf("Routes = %d", tbl.Routes())
	}
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	return netip.MustParseAddr(s)
}

// TestIndexFollowsChanges: the Index LookupOrg answers from is rebuilt
// after every change, an address whose ASN has no organization gets -1, and
// an ID names the organization LookupOrg returns.
func TestIndexFollowsChanges(t *testing.T) {
	tbl := New()
	if err := tbl.AddRouteString("52.0.0.0/8", 16509); err != nil {
		t.Fatal(err)
	}
	addr := netip.MustParseAddr("52.1.1.1")
	if id := tbl.Index().Lookup(addr); id != -1 {
		t.Errorf("unregistered ASN: Lookup = %d", id)
	}
	if err := tbl.RegisterOrg(16509, Org{Name: "Amazon", Country: "US"}); err != nil {
		t.Fatal(err)
	}
	x := tbl.Index()
	if id := x.Lookup(addr); id < 0 || x.Orgs()[id].Name != "Amazon" {
		t.Errorf("after RegisterOrg: Lookup = %d over %+v", id, x.Orgs())
	}
	if err := tbl.AddRouteString("52.9.0.0/16", 13335); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterOrg(13335, Org{Name: "Cloudflare", Country: "US"}); err != nil {
		t.Fatal(err)
	}
	if org, ok := tbl.LookupOrg(netip.MustParseAddr("52.9.1.1")); !ok || org.Name != "Cloudflare" {
		t.Errorf("after AddRoute: LookupOrg = %+v %v", org, ok)
	}
}

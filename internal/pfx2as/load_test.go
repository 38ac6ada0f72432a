package pfx2as

import (
	"strings"
	"testing"
)

func TestLoadRoutesCAIDAFormat(t *testing.T) {
	feed := "# routeviews pfx2as\n" +
		"104.16.0.0\t13\t13335\n" +
		"52.0.0.0 8 16509\n" + // whitespace variant
		"198.51.100.0\t24\t64500_64501\n" + // multi-origin underscore
		"203.0.113.0\t24\t64502,64503\n" // multi-origin comma
	tbl := New()
	n, err := tbl.LoadRoutes(strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || tbl.Routes() != 4 {
		t.Fatalf("loaded %d routes", n)
	}
	if asn, ok := tbl.OriginASN(mustAddr(t, "104.17.2.3")); !ok || asn != 13335 {
		t.Errorf("origin = %d %v", asn, ok)
	}
	if asn, _ := tbl.OriginASN(mustAddr(t, "198.51.100.9")); asn != 64500 {
		t.Errorf("multi-origin underscore = %d", asn)
	}
	if asn, _ := tbl.OriginASN(mustAddr(t, "203.0.113.9")); asn != 64502 {
		t.Errorf("multi-origin comma = %d", asn)
	}
}

func TestLoadRoutesErrors(t *testing.T) {
	cases := []string{
		"104.16.0.0\t13",           // missing asn
		"104.16.0.0\tnope\t13335",  // bad length
		"104.16.0.0\t13\tnotanasn", // bad asn
		"garbage\t13\t13335",       // bad address
	}
	for _, feed := range cases {
		if _, err := New().LoadRoutes(strings.NewReader(feed)); err == nil {
			t.Errorf("feed %q accepted", feed)
		}
	}
}

func TestLoadOrgs(t *testing.T) {
	feed := `# as2org
13335|Cloudflare|US
16509 | Amazon | us
`
	tbl := New()
	n, err := tbl.LoadOrgs(strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d orgs", n)
	}
	// Organizations are numbered in ASN order: 13335, then 16509.
	if orgs := tbl.Index().Orgs(); len(orgs) != 2 || orgs[1] != (Org{Name: "Amazon", Country: "US"}) {
		t.Errorf("orgs = %+v", orgs)
	}
}

func TestLoadOrgsErrors(t *testing.T) {
	for _, feed := range []string{"13335|Cloudflare", "x|Cloudflare|US", "5||US"} {
		if _, err := New().LoadOrgs(strings.NewReader(feed)); err == nil {
			t.Errorf("feed %q accepted", feed)
		}
	}
}

func TestEndToEndLoadedTables(t *testing.T) {
	tbl := New()
	if _, err := tbl.LoadRoutes(strings.NewReader("104.16.0.0\t13\t13335")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.LoadOrgs(strings.NewReader("13335|Cloudflare|US")); err != nil {
		t.Fatal(err)
	}
	org, ok := tbl.LookupOrgString("104.18.9.9")
	if !ok || org.Name != "Cloudflare" {
		t.Errorf("joined lookup = %+v %v", org, ok)
	}
}

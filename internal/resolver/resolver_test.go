package resolver

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/dnsserver"
	"github.com/webdep/webdep/internal/dnswire"
)

func startWorld(t *testing.T) string {
	t.Helper()
	z := dnsserver.NewZone("world.test")
	add := func(r dnswire.Record) {
		t.Helper()
		if err := z.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(dnswire.Record{Name: "world.test", Type: dnswire.TypeSOA, SOA: &dnswire.SOAData{
		MName: "ns1.world.test", RName: "admin.world.test", Serial: 1,
	}})
	add(dnswire.Record{Name: "site1.world.test", Type: dnswire.TypeA, TTL: 60,
		Addr: netip.MustParseAddr("203.0.113.1")})
	add(dnswire.Record{Name: "site1.world.test", Type: dnswire.TypeNS, TTL: 60,
		Target: "ns1.world.test"})
	add(dnswire.Record{Name: "site2.world.test", Type: dnswire.TypeCNAME, TTL: 60,
		Target: "site1.world.test"})
	add(dnswire.Record{Name: "site2.world.test", Type: dnswire.TypeNS, TTL: 60,
		Target: "ns2.world.test"})
	// A name with many addresses to force TCP fallback via truncation.
	for i := 0; i < 60; i++ {
		add(dnswire.Record{Name: "fat.world.test", Type: dnswire.TypeA, TTL: 1,
			Addr: netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(i % 250)})})
	}

	s := dnsserver.NewServer(nil)
	s.AddZone(z)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr.String()
}

func TestLookupA(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	ips, err := c.LookupA("site1.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 1 || ips[0] != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("ips = %v", ips)
	}
}

func TestLookupAThroughCNAME(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	ips, err := c.LookupA("site2.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 1 || ips[0] != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("ips = %v", ips)
	}
}

func TestLookupNS(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	ns, err := c.LookupNS("site1.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0] != "ns1.world.test" {
		t.Errorf("ns = %v", ns)
	}
}

func TestNXDomainSurfaced(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	_, err := c.LookupA("missing.world.test")
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want ErrNXDomain", err)
	}
}

func TestRefusedSurfaced(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	_, err := c.LookupA("outside.invalid")
	if !errors.Is(err, ErrRefused) {
		t.Errorf("err = %v, want ErrRefused", err)
	}
}

func TestTCPFallbackOnTruncation(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	ips, err := c.LookupA("fat.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 60 {
		t.Errorf("got %d ips through TCP fallback, want 60", len(ips))
	}
}

func TestTimeoutAgainstBlackhole(t *testing.T) {
	// RFC 5737 TEST-NET address with a port nothing listens on; connected
	// UDP either errors immediately (ICMP) or times out.
	c := NewClient("127.0.0.1:1") // almost certainly closed
	c.Timeout = 200 * time.Millisecond
	c.Retries = 1
	start := time.Now()
	_, err := c.LookupA("x.test")
	if err == nil {
		t.Fatal("lookup against closed port succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("retries took too long")
	}
}

func TestClientZeroValueDefaults(t *testing.T) {
	addr := startWorld(t)
	c := &Client{Server: addr} // zero Timeout/Retries must self-repair
	ips, err := c.LookupA("site1.world.test")
	if err != nil || len(ips) != 1 {
		t.Fatalf("zero-value client: %v %v", ips, err)
	}
}

func TestLookupNSGluedUsesAdditionalSection(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	// startWorld's zone holds ns1.world.test's NS for site1 but no A record
	// for ns1 → no glue.
	targets, glue, err := c.LookupNSGlued("site1.world.test")
	if err != nil || len(targets) != 1 {
		t.Fatalf("targets = %v, err = %v", targets, err)
	}
	if len(glue) != 0 {
		t.Fatalf("glue for unresolvable target: %v", glue)
	}
}

// TestParentAnswersReferral queries a parent zone for a name below a
// delegation it holds: no answer, authority NS, glue A, AA clear.
func TestParentAnswersReferral(t *testing.T) {
	parent := dnsserver.NewZone("test")
	for _, r := range []dnswire.Record{
		{Name: "test", Type: dnswire.TypeSOA,
			SOA: &dnswire.SOAData{MName: "ns1.test", RName: "admin.test", Serial: 1}},
		{Name: "example.test", Type: dnswire.TypeNS, TTL: 300, Target: "ns1.example.test"},
		{Name: "ns1.example.test", Type: dnswire.TypeA, TTL: 300, Addr: netip.MustParseAddr("198.51.100.53")},
	} {
		if err := parent.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	srv := dnsserver.NewServer(nil)
	srv.AddZone(parent)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	resp, err := NewClient(addr.String()).Exchange("www.example.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.AA {
		t.Error("referral marked authoritative")
	}
	if len(resp.Answers) != 0 {
		t.Errorf("referral carries answers: %+v", resp.Answers)
	}
	if len(resp.Authorities) != 1 || resp.Authorities[0].Target != "ns1.example.test" {
		t.Errorf("authorities = %+v", resp.Authorities)
	}
	if len(resp.Additionals) != 1 || resp.Additionals[0].Addr != netip.MustParseAddr("198.51.100.53") {
		t.Errorf("glue = %+v", resp.Additionals)
	}
}

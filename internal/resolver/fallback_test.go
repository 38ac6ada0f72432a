package resolver

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/resilience"
)

// faultProxy fronts the test world with a fault-injection proxy whose UDP
// and TCP sides share one port, so the client's truncation fallback
// traverses the same injected faults as its UDP queries.
func faultProxy(t *testing.T, upstream string, udpPlan, tcpPlan faultinject.Plan) *faultinject.Proxy {
	t.Helper()
	p, err := faultinject.New(upstream, udpPlan, tcpPlan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestTCPFallbackThroughProxy sends the truncation-forcing query through a
// clean proxy: the UDP leg and the TCP fallback leg both traverse the
// proxied port.
func TestTCPFallbackThroughProxy(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{}, faultinject.Plan{})

	c := NewClient(p.Addr)
	ips, err := c.LookupA("fat.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 60 {
		t.Errorf("got %d ips through proxied TCP fallback, want 60", len(ips))
	}
	stats := p.Stats()
	if stats.UDPForwarded == 0 || stats.TCPForwarded == 0 {
		t.Errorf("fallback did not traverse both transports: %+v", stats)
	}
}

// TestTCPFallbackUnderTruncatedUDPLoss drops the first UDP datagrams so
// the client must retry before it even sees the truncated answer, then
// completes over TCP.
func TestTCPFallbackUnderTruncatedUDPLoss(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{DropFirst: 2}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 200 * time.Millisecond
	c.Retries = 3
	ips, err := c.LookupA("fat.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 60 {
		t.Errorf("got %d ips, want 60", len(ips))
	}
	if s := p.Stats(); s.UDPDropped != 2 {
		t.Errorf("stats = %+v, want 2 dropped UDP datagrams", s)
	}
}

// TestTCPFallbackWhenTCPUpstreamAlsoLossy drops the first TCP connection
// too: the whole UDP→truncation→TCP attempt fails once and the policy
// retry must redo both legs.
func TestTCPFallbackWhenTCPUpstreamAlsoLossy(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{}, faultinject.Plan{DropFirst: 1})

	c := NewClient(p.Addr)
	c.Timeout = 300 * time.Millisecond
	c.Policy = &resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
	ips, err := c.LookupA("fat.world.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 60 {
		t.Errorf("got %d ips, want 60", len(ips))
	}
	if s := p.Stats(); s.TCPDropped != 1 || s.TCPForwarded == 0 {
		t.Errorf("stats = %+v, want exactly one dropped TCP connection", s)
	}
}

// TestTCPBlackholeExhaustsRetries blackholes the TCP side entirely: every
// fallback dies, the policy retries transiently and ultimately fails,
// while plain (non-truncated) UDP queries keep working.
func TestTCPBlackholeExhaustsRetries(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{}, faultinject.Plan{Blackhole: true})

	c := NewClient(p.Addr)
	c.Timeout = 200 * time.Millisecond
	c.Policy = &resilience.Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
	}
	if _, err := c.LookupA("fat.world.test"); err == nil {
		t.Fatal("truncated lookup through TCP blackhole succeeded")
	}
	// The UDP-only path is unaffected by the TCP blackhole.
	ips, err := c.LookupA("site1.world.test")
	if err != nil || len(ips) != 1 {
		t.Fatalf("udp-only lookup: %v %v", ips, err)
	}
}

// TestRetriesThroughLossyPath drops the first datagrams of a plain
// (non-truncated) lookup and verifies the client's fixed retry loop recovers.
func TestRetriesThroughLossyPath(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{DropFirst: 2}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 300 * time.Millisecond
	c.Retries = 3
	addrs, err := c.LookupA("site1.world.test")
	if err != nil {
		t.Fatalf("lookup through lossy path: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestLossBeyondRetriesFails(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{Blackhole: true}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 150 * time.Millisecond
	c.Retries = 1
	if _, err := c.LookupA("site1.world.test"); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// TestPolicyRetriesReplaceFixedLoop checks that with a Policy installed the
// client's Retries field is ignored and attempts come from the policy.
func TestPolicyRetriesReplaceFixedLoop(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{DropFirst: 3}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 150 * time.Millisecond
	c.Retries = 0 // would fail without the policy
	c.Policy = &resilience.Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
	}
	ips, err := c.LookupA("site1.world.test")
	if err != nil || len(ips) != 1 {
		t.Fatalf("policy-driven retries: %v %v", ips, err)
	}
}

// TestPolicyDoesNotRetryNXDomain confirms authoritative negatives pass
// through the policy without burning attempts.
func TestPolicyDoesNotRetryNXDomain(t *testing.T) {
	addr := startWorld(t)
	c := NewClient(addr)
	c.Policy = &resilience.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	start := time.Now()
	if _, err := c.LookupA("missing.world.test"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
	if time.Since(start) > time.Second {
		t.Error("NXDOMAIN appears to have been retried")
	}
}

// TestExchangeContextCancellation aborts an exchange whose datagrams are
// blackholed; the context error must surface promptly instead of the full
// retry schedule playing out.
func TestExchangeContextCancellation(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{Blackhole: true}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 5 * time.Second
	c.Policy = &resilience.Policy{MaxAttempts: 10, BaseDelay: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.LookupAContext(ctx, "site1.world.test")
	if err == nil {
		t.Fatal("cancelled lookup succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestBreakerShortCircuitsDNS drives the per-server breaker open through a
// blackholed proxy and checks further lookups fail fast without touching
// the network.
func TestBreakerShortCircuitsDNS(t *testing.T) {
	addr := startWorld(t)
	p := faultProxy(t, addr, faultinject.Plan{Blackhole: true}, faultinject.Plan{})

	c := NewClient(p.Addr)
	c.Timeout = 100 * time.Millisecond
	c.Policy = &resilience.Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		Breakers:    resilience.NewBreakerSet(3, time.Hour),
	}
	// Burn through the failure threshold.
	for i := 0; i < 2; i++ {
		if _, err := c.LookupA("site1.world.test"); err == nil {
			t.Fatal("blackholed lookup succeeded")
		}
	}
	sent := p.Stats().UDPDropped
	start := time.Now()
	_, err := c.LookupA("site1.world.test")
	if !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("open breaker still waited on the network")
	}
	if p.Stats().UDPDropped != sent {
		t.Error("open breaker sent datagrams")
	}
}

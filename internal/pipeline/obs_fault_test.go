package pipeline

import (
	"testing"
	"time"

	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
)

// TestObsCountersMatchResilienceUnderFaults is the observability acceptance
// gate: a lossy live crawl records its retry and breaker activity through
// two independent channels — the resilience policy's own atomic accounting
// and the obs registry the crawl injects everywhere — and the two must
// agree EXACTLY, probe for probe. The fault injection makes the retry path
// hot (thousands of attempts, real retries) so agreement is not vacuous.
func TestObsCountersMatchResilienceUnderFaults(t *testing.T) {
	w, ep := faultWorld(t)

	// 30% loss on both probe paths, as in the convergence test.
	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)

	r := obs.NewRegistry()
	dns := resolver.NewClient(dnsProxy.Addr)
	dns.Timeout = 150 * time.Millisecond
	policy := &resilience.Policy{
		MaxAttempts: 12,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
	}
	corpus := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            dns,
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        tlsProxy.Addr,
		Workers:        4,
		DetectLanguage: true,
		Resilience:     policy,
		Obs:            r,
	})

	stats := policy.Stats()
	if stats.Retries == 0 || stats.TransientFailures == 0 {
		t.Fatalf("no retry pressure under 30%% loss (stats %+v); the cross-check would be vacuous", stats)
	}

	// Every resilience counter the crawl emitted must equal the policy's
	// own accounting.
	counters := map[string]int64{
		"resilience.attempts":           stats.Attempts,
		"resilience.retries":            stats.Retries,
		"resilience.successes":          stats.Successes,
		"resilience.permanent_failures": stats.PermanentFailures,
		"resilience.transient_failures": stats.TransientFailures,
		"resilience.budget_exhausted":   stats.BudgetExhausted,
		"resilience.circuit_rejections": stats.CircuitRejections,
	}
	for name, want := range counters {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, policy's own accounting says %d", name, got, want)
		}
	}
	if got := r.Timing("resilience.attempt_ms").Snapshot().Count; got != stats.Attempts {
		t.Errorf("resilience.attempt_ms count = %d, want %d attempts", got, stats.Attempts)
	}

	// Breaker transition counters must equal the sum of every breaker's own
	// transition accounting (the policy had no breakers configured here, so
	// both sides must be zero — agreement still has to hold).
	var opened, halfOpened, closed int64
	if policy.Breakers != nil {
		for _, kind := range policy.Breakers.Kinds() {
			o, h, c := policy.Breakers.Breaker(kind).Transitions()
			opened, halfOpened, closed = opened+o, halfOpened+h, closed+c
		}
	}
	transitions := map[string]int64{
		"resilience.breaker.opened":      opened,
		"resilience.breaker.half_opened": halfOpened,
		"resilience.breaker.closed":      closed,
	}
	for name, want := range transitions {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, breakers' own accounting says %d", name, got, want)
		}
	}

	// Every probe attempt the policy ran surfaced in exactly one per-probe
	// instrument: the resolver, scanner, and fetcher each count one probe
	// per policy attempt of their kind (circuit rejections run none).
	probes := r.Counter("probe.dns.attempts").Value() +
		r.Counter("probe.tls.scans").Value() +
		r.Counter("probe.http.fetches").Value()
	if probes != stats.Attempts {
		t.Errorf("per-probe attempt counters sum to %d, policy ran %d attempts", probes, stats.Attempts)
	}

	// Connections close the same way: every scan dialled once, and so did
	// every fetch attempt that did not ride the connection its site's scan
	// kept; each of those dials either completed a handshake or was one of
	// the connections the proxy dropped.
	reused := r.Counter("probe.http.reused").Value()
	dials := r.Counter("probe.tls.scans").Value() + r.Counter("probe.http.fetches").Value() - reused
	handshakes, dropped := r.Counter("probe.tls.handshakes").Value(), int64(tlsProxy.Stats().TCPDropped)
	if handshakes+dropped != dials {
		t.Errorf("%d handshakes + %d dropped connections != %d dials (scans + fetches − %d reused)",
			handshakes, dropped, dials, reused)
	}
	if reused == 0 {
		t.Error("no fetch rode a kept connection; the dial cross-check would be vacuous")
	}

	// The crawl-level outcome counters must equal the corpus's coverage
	// accounting field for field.
	var sites, ok, empty, lost [4]int64
	var totalSites int64
	for _, cc := range []string{"TH", "CZ"} {
		cov := corpus.CoverageOf(cc)
		if cov == nil {
			t.Fatalf("%s: no coverage recorded", cc)
		}
		totalSites += int64(cov.Sites)
		for i, f := range []struct{ OK, Empty, Lost int }{
			{cov.Host.OK, cov.Host.Empty, cov.Host.Lost},
			{cov.NS.OK, cov.NS.Empty, cov.NS.Lost},
			{cov.CA.OK, cov.CA.Empty, cov.CA.Lost},
			{cov.Language.OK, cov.Language.Empty, cov.Language.Lost},
		} {
			ok[i] += int64(f.OK)
			empty[i] += int64(f.Empty)
			lost[i] += int64(f.Lost)
		}
	}
	_ = sites
	for i, field := range []string{"host", "ns", "ca", "lang"} {
		if got := r.Counter("crawl." + field + ".ok").Value(); got != ok[i] {
			t.Errorf("crawl.%s.ok = %d, coverage accounting says %d", field, got, ok[i])
		}
		if got := r.Counter("crawl." + field + ".empty").Value(); got != empty[i] {
			t.Errorf("crawl.%s.empty = %d, coverage accounting says %d", field, got, empty[i])
		}
		if got := r.Counter("crawl." + field + ".lost").Value(); got != lost[i] {
			t.Errorf("crawl.%s.lost = %d, coverage accounting says %d", field, got, lost[i])
		}
	}
	if got := r.Counter("crawl.sites").Value(); got != totalSites {
		t.Errorf("crawl.sites = %d, coverage accounting says %d", got, totalSites)
	}
	if got := r.Timing("crawl.site_ms").Snapshot().Count; got != totalSites {
		t.Errorf("crawl.site_ms count = %d, want %d sites", got, totalSites)
	}
	if got := r.Timing("stage.crawl.ms").Snapshot().Count; got != 1 {
		t.Errorf("stage.crawl.ms count = %d, want 1", got)
	}

	// The faults really happened.
	if s := dnsProxy.Stats(); s.UDPDropped == 0 {
		t.Error("DNS proxy dropped nothing; the test exercised no faults")
	}
	if s := tlsProxy.Stats(); s.TCPDropped == 0 {
		t.Error("TLS proxy dropped nothing; the test exercised no faults")
	}
}

// TestObsBreakerCountersMatchUnderBlackhole exercises the breaker side of
// the cross-check: a blackholed DNS path with breakers configured must trip
// them, and the emitted transition counters must equal the breakers' own
// tallies exactly.
func TestObsBreakerCountersMatchUnderBlackhole(t *testing.T) {
	w, ep := faultWorld(t)
	dnsProxy := proxyFor(t, ep.DNSAddr,
		faultinject.Plan{Blackhole: true}, faultinject.Plan{Blackhole: true})

	r := obs.NewRegistry()
	dns := resolver.NewClient(dnsProxy.Addr)
	dns.Timeout = 50 * time.Millisecond
	policy := &resilience.Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		Breakers:    resilience.NewBreakerSet(3, 20*time.Millisecond),
	}
	crawl(t, w, &Live{
		Pipeline:   FromWorld(w),
		DNS:        dns,
		Scanner:    tlsscan.New(w.Owners),
		TLSAddr:    ep.TLSAddr,
		Workers:    4,
		Resilience: policy,
		Obs:        r,
	})

	stats := policy.Stats()
	var opened, halfOpened, closed int64
	for _, kind := range policy.Breakers.Kinds() {
		o, h, c := policy.Breakers.Breaker(kind).Transitions()
		opened, halfOpened, closed = opened+o, halfOpened+h, closed+c
	}
	if opened == 0 || stats.CircuitRejections == 0 {
		t.Fatalf("blackhole tripped no breaker (opened=%d, rejections=%d); the cross-check would be vacuous",
			opened, stats.CircuitRejections)
	}
	checks := map[string]int64{
		"resilience.breaker.opened":      opened,
		"resilience.breaker.half_opened": halfOpened,
		"resilience.breaker.closed":      closed,
		"resilience.circuit_rejections":  stats.CircuitRejections,
		"resilience.attempts":            stats.Attempts,
		"resilience.retries":             stats.Retries,
	}
	for name, want := range checks {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, component accounting says %d", name, got, want)
		}
	}
}

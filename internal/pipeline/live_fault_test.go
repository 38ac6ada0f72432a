package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// faultWorld builds and serves a small two-country world for the fault
// tests: big enough for meaningful distributions, small enough that lossy
// crawls with retries stay fast.
func faultWorld(t *testing.T) (*worldgen.World, *liveworld.Endpoints) {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    12,
		Countries:          []string{"TH", "CZ"},
		DomesticPerCountry: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return w, ep
}

func proxyFor(t *testing.T, upstream string, udpPlan, tcpPlan faultinject.Plan) *faultinject.Proxy {
	t.Helper()
	p, err := faultinject.New(upstream, udpPlan, tcpPlan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func crawl(t *testing.T, w *worldgen.World, live *Live) *dataset.Corpus {
	t.Helper()
	ccs := []string{"TH", "CZ"}
	corpus, err := live.CrawlCorpus(context.Background(), "2023-05", ccs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestCrawlConvergesUnderTransientLoss is the tentpole end-to-end check:
// with 30% of DNS datagrams and 30% of TLS/HTTP connections injected as
// transient loss, a crawl under the resilience policy must converge to the
// exact corpus a fault-free crawl produces — full coverage, no degraded
// countries, identical sites, identical scores.
func TestCrawlConvergesUnderTransientLoss(t *testing.T) {
	w, ep := faultWorld(t)

	baseline := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	})

	// 30% loss on every probe path: DNS datagrams (and any truncation
	// fallback) through one proxy, TLS handshakes and page fetches through
	// another.
	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)

	dns := resolver.NewClient(dnsProxy.Addr)
	dns.Timeout = 150 * time.Millisecond
	faulty := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            dns,
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        tlsProxy.Addr,
		Workers:        4,
		DetectLanguage: true,
		Resilience: &resilience.Policy{
			// Drop decisions are pseudo-random under concurrency; 12
			// attempts at 30% loss make residual failure probability
			// negligible (~5e-7 per probe).
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		},
	})

	for _, cc := range []string{"TH", "CZ"} {
		cov := faulty.CoverageOf(cc)
		if cov == nil {
			t.Fatalf("%s: no coverage recorded", cc)
		}
		if cov.Fraction() != 1 {
			t.Errorf("%s: coverage %.3f under transient loss with retries, want 1.0 (%+v)", cc, cov.Fraction(), *cov)
		}
		if cov.Degraded {
			t.Errorf("%s flagged degraded despite full coverage", cc)
		}
		if cov.Sites != 12 {
			t.Errorf("%s: coverage over %d sites, want 12", cc, cov.Sites)
		}

		base, got := baseline.Get(cc), faulty.Get(cc)
		for i := range base.Sites {
			if got.Sites[i] != base.Sites[i] {
				t.Errorf("%s site %d differs under faults:\n fault-free %+v\n faulty     %+v",
					cc, i, base.Sites[i], got.Sites[i])
			}
		}
	}

	// Scores derived from the two corpora must agree exactly.
	for _, layer := range []countries.Layer{countries.Hosting, countries.DNS, countries.CA} {
		want, got := baseline.ScoreSet().Scores(layer), faulty.ScoreSet().Scores(layer)
		for cc, v := range want {
			if got[cc] != v {
				t.Errorf("%v score for %s: %v under faults, %v fault-free", layer, cc, got[cc], v)
			}
		}
	}

	// The faults really happened: the proxies must have dropped traffic.
	if s := dnsProxy.Stats(); s.UDPDropped == 0 {
		t.Error("DNS proxy dropped nothing; the test exercised no faults")
	}
	if s := tlsProxy.Stats(); s.TCPDropped == 0 {
		t.Error("TLS proxy dropped nothing; the test exercised no faults")
	}
}

// TestCrawlDegradesUnderPermanentLoss blackholes the DNS path with retries
// disabled: the crawl must complete, record every DNS-layer probe as lost,
// and flag both countries degraded — not silently hand back empty fields.
func TestCrawlDegradesUnderPermanentLoss(t *testing.T) {
	w, ep := faultWorld(t)
	dnsProxy := proxyFor(t, ep.DNSAddr,
		faultinject.Plan{Blackhole: true}, faultinject.Plan{Blackhole: true})

	dns := resolver.NewClient(dnsProxy.Addr)
	dns.Timeout = 100 * time.Millisecond
	dns.Retries = 0
	corpus := crawl(t, w, &Live{
		Pipeline: FromWorld(w),
		DNS:      dns,
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  ep.TLSAddr,
		Workers:  8,
	})

	degraded := corpus.DegradedCountries()
	if len(degraded) != 2 || degraded[0] != "CZ" || degraded[1] != "TH" {
		t.Fatalf("DegradedCountries = %v, want [CZ TH]", degraded)
	}
	for _, cc := range degraded {
		cov := corpus.CoverageOf(cc)
		if !cov.Degraded {
			t.Errorf("%s coverage not flagged degraded", cc)
		}
		if cov.Host.Lost != 12 || cov.NS.Lost != 12 {
			t.Errorf("%s: Host.Lost=%d NS.Lost=%d, want 12 each", cc, cov.Host.Lost, cov.NS.Lost)
		}
		// The TLS path is unaffected: CA coverage stays complete, which is
		// exactly why per-field accounting matters.
		if cov.CA.Lost != 0 || cov.CA.OK != 12 {
			t.Errorf("%s: CA coverage %+v, want 12 OK", cc, cov.CA)
		}
		if cov.Fraction() != 0 {
			t.Errorf("%s: Fraction = %v, want 0 (worst field fully lost)", cc, cov.Fraction())
		}
		for _, s := range corpus.Get(cc).Sites {
			if s.HostProvider != "" || s.DNSProvider != "" {
				t.Fatalf("%s %s: DNS-derived fields populated through a blackhole", cc, s.Domain)
			}
			if s.CAOwner == "" {
				t.Errorf("%s %s: CA owner lost although TLS path was healthy", cc, s.Domain)
			}
		}
	}
}

// TestCrawlMinCoverageThreshold drops a bounded number of datagrams with
// retries disabled: under the default threshold the countries are
// degraded, while a permissive threshold accepts the same partial loss.
func TestCrawlMinCoverageThreshold(t *testing.T) {
	w, ep := faultWorld(t)

	build := func(minCoverage float64) *dataset.Corpus {
		proxy := proxyFor(t, ep.DNSAddr, faultinject.Plan{DropFirst: 4}, faultinject.Plan{})
		dns := resolver.NewClient(proxy.Addr)
		dns.Timeout = 100 * time.Millisecond
		dns.Retries = 0
		return crawl(t, w, &Live{
			Pipeline:    FromWorld(w),
			DNS:         dns,
			Scanner:     tlsscan.New(w.Owners),
			TLSAddr:     ep.TLSAddr,
			Workers:     2,
			MinCoverage: minCoverage,
		})
	}

	strict := build(0) // default: 1.0
	var lost, degraded int
	for _, cc := range []string{"TH", "CZ"} {
		cov := strict.CoverageOf(cc)
		lost += cov.Lost()
		if cov.Degraded {
			degraded++
		}
	}
	// Exactly the four dropped datagrams surface as lost probes, wherever
	// the scheduler happened to land them.
	if lost != 4 {
		t.Errorf("total lost probes = %d, want 4 (one per dropped datagram)", lost)
	}
	if degraded == 0 {
		t.Error("no country degraded under the default 1.0 threshold")
	}

	lax := build(0.5)
	if d := lax.DegradedCountries(); len(d) != 0 {
		t.Errorf("DegradedCountries = %v with MinCoverage 0.5, want none", d)
	}
}

// TestCrawlFailFast aborts the crawl at the first under-covered country
// instead of producing a degraded corpus.
func TestCrawlFailFast(t *testing.T) {
	w, ep := faultWorld(t)
	proxy := proxyFor(t, ep.DNSAddr,
		faultinject.Plan{Blackhole: true}, faultinject.Plan{Blackhole: true})

	dns := resolver.NewClient(proxy.Addr)
	dns.Timeout = 100 * time.Millisecond
	dns.Retries = 0
	live := &Live{
		Pipeline: FromWorld(w),
		DNS:      dns,
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  ep.TLSAddr,
		Workers:  8,
		FailFast: true,
	}
	corpus, err := live.CrawlCorpus(context.Background(), "2023-05", []string{"TH", "CZ"},
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err == nil {
		t.Fatal("fail-fast crawl through a blackhole succeeded")
	}
	if corpus != nil {
		t.Error("fail-fast returned a corpus alongside the error")
	}
	if !strings.Contains(err.Error(), "coverage") {
		t.Errorf("error %q does not mention coverage", err)
	}
}

// TestCrawlRecordsEffectiveWorkers: a zero Workers knob means the default
// pool size, and the corpus must record what actually ran, not the raw 0.
func TestCrawlRecordsEffectiveWorkers(t *testing.T) {
	w, ep := faultWorld(t)
	live := &Live{
		Pipeline: FromWorld(w),
		DNS:      resolver.NewClient(ep.DNSAddr),
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  ep.TLSAddr,
		// Workers deliberately left zero.
	}
	corpus, err := live.CrawlCorpus(context.Background(), "2023-05", []string{"TH"},
		func(cc string) []string { return w.Truth.Get(cc).Domains()[:3] }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Workers != 8 {
		t.Errorf("corpus.Workers = %d, want the effective default 8", corpus.Workers)
	}
}

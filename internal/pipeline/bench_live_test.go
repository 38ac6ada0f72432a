package pipeline

import (
	"context"
	"testing"

	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// BenchmarkCrawlSite is the live path's per-site budget: one worker probing
// a served world as a federated vantage does (A, NS, TLS scan, page fetch;
// production policy, no journal), so ns/op is ns per site. handshakes/site
// is the count the shared session exists for and must read 1.
func BenchmarkCrawlSite(b *testing.B) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    50,
		Countries:          []string{"TH"},
		DomesticPerCountry: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	r := obs.NewRegistry()
	live := &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        1,
		DetectLanguage: true,
		Resilience:     resilience.NewPolicy(),
		Obs:            r,
	}
	domains := w.Truth.Get("TH").Domains()
	crawl := func(n int) {
		jobs := make([]SiteJob, n)
		for i := range jobs {
			jobs[i] = SiteJob{Country: "TH", Domain: domains[i%len(domains)], Rank: i + 1}
		}
		_, outcomes, err := live.CrawlJobs(context.Background(), "2023-05", []string{"TH"}, jobs)
		if err != nil {
			b.Fatal(err)
		}
		for i, o := range outcomes {
			if o.Lost() {
				b.Fatalf("%s: probe lost: %+v", jobs[i].Domain, o)
			}
		}
	}
	crawl(len(domains)) // the served world issues each site's certificate on first contact

	handshakes := r.Counter("probe.tls.handshakes")
	before := handshakes.Value()
	b.ResetTimer()
	crawl(b.N)
	b.StopTimer()
	b.ReportMetric(float64(handshakes.Value()-before)/float64(b.N), "handshakes/site")
}

// Package pipeline turns crawler-visible raw observations into the
// enriched per-country datasets the analyses consume, mirroring the
// paper's measurement flow: resolve → geolocate (NetAcuity substitute) →
// prefix-to-AS organization (CAIDA substitute) → anycast annotation
// (bgp.tools substitute) → certificate CA-owner labeling (CCADB
// substitute).
//
// Two modes are provided. Enrich (fast mode) consumes pre-resolved raw
// sites and exercises every database join. The Live type additionally
// performs the resolution itself over real sockets — DNS lookups against
// authoritative servers and TLS handshakes against an HTTPS endpoint — for
// worlds served by the liveworld harness.
package pipeline

import (
	"context"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"net/netip"

	"github.com/webdep/webdep/internal/anycast"
	"github.com/webdep/webdep/internal/capki"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/geoip"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/pfx2as"
	"github.com/webdep/webdep/internal/tldinfo"
	"github.com/webdep/webdep/internal/worldgen"
)

// Pipeline enriches raw observations through the infrastructure databases.
// The databases are read-only at lookup time (the geolocation error model
// is a deterministic hash of the address), so one Pipeline may enrich many
// countries concurrently.
type Pipeline struct {
	GeoDB   *geoip.DB
	ASTable *pfx2as.Table
	Anycast *anycast.Set
	Owners  *capki.OwnerDB

	// Workers bounds how many countries MeasureWorld and
	// MeasureWorldToStore enrich at once; 0 means one worker per CPU. The
	// measured corpus (and store) is identical for every worker count.
	Workers int

	// Obs selects the metrics registry the pipeline's stage timings record
	// to; nil means obs.Default(). Metrics are pure side channels — the
	// measured corpus is byte-identical with or without them.
	Obs *obs.Registry
}

func (p *Pipeline) reg() *obs.Registry {
	if p.Obs != nil {
		return p.Obs
	}
	return obs.Default()
}

// FromWorld builds a pipeline over a synthetic world's databases.
func FromWorld(w *worldgen.World) *Pipeline {
	return &Pipeline{
		GeoDB:   w.GeoDB,
		ASTable: w.ASTable,
		Anycast: w.Anycast,
		Owners:  w.Owners,
	}
}

// EnrichCountry annotates one country's raw sites into a CountryList.
// Sites whose host IP cannot be attributed keep empty provider fields,
// matching how failed measurements surface in the paper's data.
func (p *Pipeline) EnrichCountry(cc, epoch string, raw []worldgen.RawSite) *dataset.CountryList {
	list := &dataset.CountryList{}
	p.enrichInto(list, cc, epoch, raw)
	return list
}

// enrichInto is EnrichCountry into list, reusing its Sites array when it
// is large enough. Every row is zeroed before it is filled, so nothing of
// the list's previous country survives.
func (p *Pipeline) enrichInto(list *dataset.CountryList, cc, epoch string, raw []worldgen.RawSite) {
	list.Country, list.Epoch = cc, epoch
	if cap(list.Sites) < len(raw) {
		list.Sites = make([]dataset.Website, len(raw))
	}
	list.Sites = list.Sites[:len(raw)]
	for i := range raw {
		site, w := &raw[i], &list.Sites[i]
		*w = dataset.Website{
			Domain:   site.Domain,
			Country:  cc,
			Rank:     site.Rank,
			TLD:      tldinfo.Extract(site.Domain),
			Language: site.Language,
		}
		p.annotateHost(w, site.HostIP)
		p.annotateNS(w, site.NSIP)
		p.annotateCA(w, site.IssuerOrg)
	}
}

func (p *Pipeline) annotateHost(w *dataset.Website, ip netip.Addr) {
	if !ip.IsValid() {
		return
	}
	w.HostIP = ip.String()
	if org, ok := p.ASTable.LookupOrg(ip); ok {
		w.HostProvider = org.Name
		w.HostProviderCountry = org.Country
	}
	if loc, ok := p.GeoDB.Lookup(ip); ok {
		w.HostIPContinent = loc.Continent
	}
	w.HostAnycast = p.Anycast.Contains(ip)
}

func (p *Pipeline) annotateNS(w *dataset.Website, ip netip.Addr) {
	if !ip.IsValid() {
		return
	}
	w.NSIP = ip.String()
	if org, ok := p.ASTable.LookupOrg(ip); ok {
		w.DNSProvider = org.Name
		w.DNSProviderCountry = org.Country
	}
	if loc, ok := p.GeoDB.Lookup(ip); ok {
		w.NSIPContinent = loc.Continent
	}
	w.NSAnycast = p.Anycast.Contains(ip)
}

func (p *Pipeline) annotateCA(w *dataset.Website, issuerOrg string) {
	if issuerOrg == "" {
		return
	}
	// The CCADB join: issuing organization → CA owner.
	if owner, ok := p.Owners.OwnerOf(leafStub(issuerOrg)); ok {
		w.CAOwner = owner.Name
		w.CAOwnerCountry = owner.Country
	}
}

// leafStub wraps an issuer organization in a minimal certificate so the
// owner database's issuer-matching logic applies uniformly in fast mode
// (live mode hands it the real parsed leaf).
func leafStub(issuerOrg string) *x509.Certificate {
	return &x509.Certificate{Issuer: pkix.Name{Organization: []string{issuerOrg}}}
}

// MeasureWorld enriches every country of a world, producing the measured
// corpus the analyses run on. Countries are enriched concurrently on a
// pool of p.Workers goroutines; the result is index-addressed per country
// and assembled in the world's country order, so the corpus is identical
// to a sequential measurement. A country with no raw sites fails the whole
// measurement, cancelling the in-flight enrichment of the others.
func (p *Pipeline) MeasureWorld(w *worldgen.World) (*dataset.Corpus, error) {
	reg := p.reg()
	measureSpan := obs.StartSpan(reg.Timing("stage.measure.ms"))
	enrichMS := reg.Timing("pipeline.enrich_country.ms")
	enriched := reg.Counter("pipeline.countries_enriched")

	ccs := w.Config.Countries
	lists, err := parallel.Map(context.Background(), p.Workers, len(ccs),
		func(_ context.Context, i int) (*dataset.CountryList, error) {
			raw, ok := w.Raw[ccs[i]]
			if !ok {
				return nil, fmt.Errorf("pipeline: world has no raw sites for %s", ccs[i])
			}
			sp := obs.StartSpan(enrichMS)
			list := p.EnrichCountry(ccs[i], w.Config.Epoch, raw)
			sp.End()
			enriched.Inc()
			return list, nil
		})
	if err != nil {
		return nil, err
	}
	corpus := dataset.NewCorpus(w.Config.Epoch)
	corpus.Workers = p.Workers
	for _, list := range lists {
		corpus.Add(list)
	}
	validateSpan := obs.StartSpan(reg.Timing("stage.validate.ms"))
	err = corpus.Validate()
	validateSpan.End()
	measureSpan.End()
	if err != nil {
		return nil, err
	}
	return corpus, nil
}

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
	j := p.joins()
	for i := range raw {
		site, w := &raw[i], &list.Sites[i]
		*w = dataset.Website{
			Domain:   site.Domain,
			Country:  cc,
			Rank:     site.Rank,
			TLD:      tldinfo.Extract(site.Domain),
			Language: site.Language,
		}
		j.annotateHost(w, site.HostIP)
		j.annotateNS(w, site.NSIP)
		j.annotateCA(w, site.IssuerOrg)
	}
}

// joins is the pipeline's databases as dense indexes: each lookup yields
// an ID into a table of organizations, locations or CA owners, -1 where it
// finds nothing. Website rows (EnrichCountry, Live) and the store ingest's
// corpusstore.Rows are both filled from these lookups, so the rules of the
// joins live here alone.
type joins struct {
	orgs    *pfx2as.Index
	geo     *geoip.Index
	owners  *capki.OwnerIndex
	anycast *anycast.Set
}

func (p *Pipeline) joins() joins {
	return joins{orgs: p.ASTable.Index(), geo: p.GeoDB.Index(), owners: p.Owners.Index(), anycast: p.Anycast}
}

// addrJoin is one address joined against the databases: its organization
// (prefix-to-AS, then AS-to-organization), its location and whether it is
// anycast. An invalid address joins nothing.
type addrJoin struct {
	org, loc int32
	anycast  bool
}

func (j *joins) addr(ip netip.Addr) addrJoin {
	return addrJoin{org: j.orgs.Lookup(ip), loc: j.geo.Lookup(ip), anycast: j.anycast.Contains(ip)}
}

// caOwner is the CCADB join: the ID of the owner of the CA whose issuing
// organization is issuerOrg, or -1 for no issuer or an unknown one. It is
// the owner OwnerOf gives a leaf naming only that organization, as live
// mode hands it the real parsed leaf.
func (j *joins) caOwner(issuerOrg string) int32 {
	if issuerOrg == "" {
		return -1
	}
	return j.owners.Lookup(issuerOrg)
}

func (j *joins) annotateHost(w *dataset.Website, ip netip.Addr) {
	if !ip.IsValid() {
		return
	}
	w.HostIP = ip.String()
	a := j.addr(ip)
	w.HostProvider, w.HostProviderCountry = j.org(a.org)
	w.HostIPContinent = j.continent(a.loc)
	w.HostAnycast = a.anycast
}

func (j *joins) annotateNS(w *dataset.Website, ip netip.Addr) {
	if !ip.IsValid() {
		return
	}
	w.NSIP = ip.String()
	a := j.addr(ip)
	w.DNSProvider, w.DNSProviderCountry = j.org(a.org)
	w.NSIPContinent = j.continent(a.loc)
	w.NSAnycast = a.anycast
}

func (j *joins) annotateCA(w *dataset.Website, issuerOrg string) {
	if id := j.caOwner(issuerOrg); id >= 0 {
		o := &j.owners.Owners()[id]
		w.CAOwner, w.CAOwnerCountry = o.Name, o.Country
	}
}

// org returns organization id's name and country, empty for -1.
func (j *joins) org(id int32) (name, country string) {
	if id < 0 {
		return "", ""
	}
	o := &j.orgs.Orgs()[id]
	return o.Name, o.Country
}

// continent returns location id's continent, empty for -1.
func (j *joins) continent(id int32) string {
	if id < 0 {
		return ""
	}
	return j.geo.Locations()[id].Continent
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

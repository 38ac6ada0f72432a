package pipeline

import (
	"context"
	"fmt"
	"sync"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/tldinfo"
	"github.com/webdep/webdep/internal/worldgen"
)

// MeasureWorldToStore measures a world straight into an on-disk corpus
// store: each country's raw sites are generated (for shell worlds) or read
// from the world, enriched, and appended to that country's shard, so at
// most one country per worker is ever resident — the path that lets a
// million-site world be measured and scored inside a fixed memory budget.
//
// Rows are enriched in IDs, not strings: each worker fills one reused
// corpusstore.Rows, each address formatted into the row buffer's text and
// every symbol column as IDs into one dictionary built for this call from
// the databases' tables, so no row allocates a string and the shard
// encoder hashes none. AppendRows
// returns once the shard's bytes are written, so the rows are free for the
// next country. The bytes written are identical to Save of MeasureWorld's
// corpus for the same world. The caller still owns st and must Close it to
// finalize the manifest.
func (p *Pipeline) MeasureWorldToStore(w *worldgen.World, st *corpusstore.Writer) error {
	if st.Epoch() != w.Config.Epoch {
		return fmt.Errorf("pipeline: store epoch %q does not match world epoch %q", st.Epoch(), w.Config.Epoch)
	}
	reg := p.reg()
	measureSpan := obs.StartSpan(reg.Timing("stage.measure.ms"))
	enrichMS := reg.Timing("pipeline.enrich_country.ms")
	enriched := reg.Counter("pipeline.countries_enriched")

	j := p.joins()
	dict := newDictionary(&j)
	ccs := w.Config.Countries
	// At most this many countries are enriched at once, so the channel
	// never fills.
	idle := make(chan *rowBuffer, min(parallel.Workers(p.Workers), len(ccs)))
	err := parallel.ForEachIndexed(context.Background(), p.Workers, len(ccs),
		func(_ context.Context, i int) error {
			cc := ccs[i]
			raw, ok := w.Raw[cc]
			if !ok {
				// Shell world: generate the country on demand and let it go
				// once its shard is written.
				var err error
				if raw, _, err = w.GenerateCountry(cc); err != nil {
					return err
				}
			}
			if len(raw) == 0 {
				return fmt.Errorf("pipeline: world has no raw sites for %s", cc)
			}
			var buf *rowBuffer
			select {
			case buf = <-idle:
			default:
				buf = &rowBuffer{seen: map[string]uint32{}}
			}
			defer func() { idle <- buf }()
			sp := obs.StartSpan(enrichMS)
			j.enrichRows(buf, dict, raw)
			sp.End()
			enriched.Inc()
			return st.AppendRows(cc, &buf.rows)
		})
	measureSpan.End()
	return err
}

// dictionary is one ingest's symbol dictionary (corpusstore.Rows.Names):
// every name the databases can put in a symbol column, each once, with
// the IDs of each organization's, location's and CA owner's names laid
// out by the indexes' own IDs, so a join's ID becomes a symbol ID through
// a slice. TLDs and languages come with the rows and join on first sight.
// Workers share it: names only grow, so a snapshot stays valid.
type dictionary struct {
	empty uint32      // the ID of "", what a failed join writes
	orgs  [][2]uint32 // by pfx2as organization ID: name, country
	locs  []uint32    // by geoip location ID: continent
	cas   [][2]uint32 // by capki owner ID: name, country

	mu    sync.Mutex // guards ids and names once workers share the dictionary
	ids   map[string]uint32
	names []string
}

func newDictionary(j *joins) *dictionary {
	d := &dictionary{ids: map[string]uint32{}}
	d.empty = d.add("")
	for _, o := range j.orgs.Orgs() {
		d.orgs = append(d.orgs, [2]uint32{d.add(o.Name), d.add(o.Country)})
	}
	for _, l := range j.geo.Locations() {
		d.locs = append(d.locs, d.add(l.Continent))
	}
	for _, o := range j.owners.Owners() {
		d.cas = append(d.cas, [2]uint32{d.add(o.Name), d.add(o.Country)})
	}
	return d
}

// add returns s's ID, adding it on first sight. The caller holds mu, or
// has not shared d yet.
func (d *dictionary) add(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.names))
	d.ids[s] = id
	d.names = append(d.names, s)
	return id
}

// intern is add for a worker sharing d.
func (d *dictionary) intern(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.add(s)
}

// snapshot returns the names so far; IDs handed out before the call are
// all in it.
func (d *dictionary) snapshot() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.names
}

// pair returns the symbol IDs at id of a name-and-country table, or two
// empties for -1.
func (d *dictionary) pair(table [][2]uint32, id int32) (uint32, uint32) {
	if id < 0 {
		return d.empty, d.empty
	}
	return table[id][0], table[id][1]
}

// rowBuffer is one worker's reused rows, and the IDs of the TLDs and
// languages it has already looked up in the shared dictionary, so a row
// takes no lock.
type rowBuffer struct {
	rows corpusstore.Rows
	seen map[string]uint32
}

func (b *rowBuffer) name(d *dictionary, s string) uint32 {
	if id, ok := b.seen[s]; ok {
		return id
	}
	id := d.intern(s)
	b.seen[s] = id
	return id
}

// enrichRows is EnrichCountry into b's rows, over dictionary d: the same
// joins, each row's fields written as address text, bits and symbol IDs.
// Every field of every row is written, so nothing of b's previous country
// survives.
func (j *joins) enrichRows(b *rowBuffer, d *dictionary, raw []worldgen.RawSite) {
	r := &b.rows
	r.Resize(len(raw))
	// A TLD or language repeats the row before's more often than not, and
	// comparing short strings is cheaper than a map lookup.
	var tld, lang string
	for i := range raw {
		site := &raw[i]
		r.Rank[i], r.Domain[i] = site.Rank, site.Domain
		r.HostIP.AppendAddr(site.HostIP)
		r.NSIP.AppendAddr(site.NSIP)
		host, ns := j.addr(site.HostIP), j.addr(site.NSIP)
		r.HostProvider[i], r.HostProviderCountry[i] = d.pair(d.orgs, host.org)
		r.DNSProvider[i], r.DNSProviderCountry[i] = d.pair(d.orgs, ns.org)
		r.HostIPContinent[i], r.NSIPContinent[i] = d.empty, d.empty
		if host.loc >= 0 {
			r.HostIPContinent[i] = d.locs[host.loc]
		}
		if ns.loc >= 0 {
			r.NSIPContinent[i] = d.locs[ns.loc]
		}
		r.HostAnycast[i], r.NSAnycast[i] = host.anycast, ns.anycast
		r.CAOwner[i], r.CAOwnerCountry[i] = d.pair(d.cas, j.caOwner(site.IssuerOrg))
		if t := tldinfo.Extract(site.Domain); i == 0 || t != tld {
			tld, r.TLD[i] = t, b.name(d, t)
		} else {
			r.TLD[i] = r.TLD[i-1]
		}
		if i == 0 || site.Language != lang {
			lang, r.Language[i] = site.Language, b.name(d, site.Language)
		} else {
			r.Language[i] = r.Language[i-1]
		}
	}
	r.Names = d.snapshot()
}

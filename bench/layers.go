package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/fedtransport"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/webdepd"
)

// The layer probes: every per-layer metric is taken here, from outside, by
// timing one layer's public calls on the two generated worlds or by
// reading the obs instruments of a registry the benchmark owns. They run
// one at a time and do not depend on which workload a traced run names, so
// a layer's number reads the same on all four. Probes whose sum must
// explain another probe (decode + tally against score) run on one worker;
// the rest keep production defaults.

const layersName = "layers"

// prober times probes as spans and collects the metric values.
type prober struct {
	tr     *tracer
	values map[string]float64
	// gcFirst collects before each probe, as testing.B does before a
	// benchmark: with both worlds resident one collection costs about as
	// much as a batch probe, and it would land on whichever probe happened
	// to cross the heap target.
	gcFirst bool
}

func (p *prober) start(name string) int {
	if p.gcFirst {
		runtime.GC()
	}
	return p.tr.start(layersName, 0, name, 0)
}

// timed runs fn under a span named after the call it makes.
func (p *prober) timed(name string, fn func()) time.Duration {
	id := p.start(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	return d
}

// timedAllocs is timed with the heap objects and bytes fn allocated.
func (p *prober) timedAllocs(name string, fn func()) (time.Duration, uint64, uint64) {
	id := p.start(name)
	d, objects, size := allocsDuring(fn)
	p.tr.end(id)
	return d, objects, size
}

// batchLayers probes worldgen, pipeline, corpusstore, dataset, depgraph
// and classify on world-batch.
func (p *prober) batchLayers(e *env, fx *batchFixture) error {
	v := p.values
	p.gcFirst = true
	defer func() { p.gcFirst = false }()
	sites := float64(fx.sites)
	v["worldgen.build_ms"] = ms(fx.buildWall)
	v["worldgen.sites_per_s"] = sites / fx.buildWall.Seconds()

	epoch := fx.world.Config.Epoch
	lists := make([]*dataset.CountryList, 0, len(fx.ccs))
	d, objects, _ := p.timedAllocs("pipeline.EnrichCountry", func() {
		for _, cc := range fx.world.Config.Countries {
			lists = append(lists, fx.pipe.EnrichCountry(cc, epoch, fx.world.Raw[cc]))
		}
	})
	v["pipeline.enrich_ms"] = ms(d)
	v["pipeline.enrich_allocs_per_site"] = float64(objects) / sites

	scratch, err := e.scratch("layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	dir := filepath.Join(scratch, "store")
	wr, err := corpusstore.Create(dir, epoch, &corpusstore.Options{Obs: fx.reg})
	if err != nil {
		return err
	}
	written := fx.reg.Counter("store.bytes_written").Value()
	busy := histSum(fx.reg, "store.shard_write_ms")
	d = p.timed("corpusstore.Writer.AppendList", func() {
		for _, l := range lists {
			if err = wr.AppendList(l); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	v["corpusstore.append_ms"] = ms(d)
	d = p.timed("corpusstore.Writer.Close", func() { err = wr.Close() })
	if err != nil {
		return err
	}
	v["corpusstore.finalize_ms"] = ms(d)
	v["corpusstore.bytes_written"] = float64(fx.reg.Counter("store.bytes_written").Value() - written)
	v["corpusstore.shard_write_busy_ms"] = histSum(fx.reg, "store.shard_write_ms") - busy
	lists = nil

	var st *corpusstore.Store
	d = p.timed("corpusstore.Open", func() { st, err = corpusstore.Open(dir, &corpusstore.Options{Obs: fx.reg, Workers: 1}) })
	if err != nil {
		return err
	}
	v["corpusstore.open_ms"] = ms(d)
	d, objects, _ = p.timedAllocs("corpusstore.Store.StreamShard", func() {
		for _, cc := range st.Countries() {
			if err = st.StreamShard(cc, func(*dataset.Website) error { return nil }); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	v["corpusstore.decode_ms"] = ms(d)
	v["corpusstore.decode_allocs_per_row"] = float64(objects) / sites
	d, objects, _ = p.timedAllocs("corpusstore.Store.Score", func() { _, err = st.Score() })
	if err != nil {
		return err
	}
	v["corpusstore.score_ms"] = ms(d)
	v["corpusstore.score_allocs_per_row"] = float64(objects) / sites

	// Load as the daemon does it: default workers.
	std, err := corpusstore.Open(dir, &corpusstore.Options{Obs: fx.reg})
	if err != nil {
		return err
	}
	var corpus *dataset.Corpus
	d, _, size := p.timedAllocs("corpusstore.Store.Load", func() { corpus, err = std.Load() })
	if err != nil {
		return err
	}
	v["corpusstore.load_ms"] = ms(d)
	v["corpusstore.load_alloc_mb"] = float64(size) / 1e6

	d = p.timed("dataset.CountryTally.Observe+BuildScoreSet", func() {
		tallies := make([]*dataset.CountryTally, 0, len(fx.ccs))
		for _, cc := range corpus.Countries() {
			t := dataset.NewCountryTally(cc)
			rows := corpus.Get(cc).Sites
			for i := range rows {
				t.Observe(&rows[i])
			}
			tallies = append(tallies, t)
		}
		_, err = dataset.BuildScoreSet(tallies)
	})
	if err != nil {
		return err
	}
	v["dataset.tally_ms"] = ms(d)
	corpus.InvalidateScoringIndex()
	d, objects, _ = p.timedAllocs("dataset.Corpus.ScoreSet", func() { corpus.ScoreSet() })
	v["dataset.index_build_ms"] = ms(d)
	v["dataset.index_allocs"] = float64(objects)

	one := &depgraph.Options{Obs: fx.reg, Workers: 1}
	var g *depgraph.Graph
	d = p.timed("depgraph.FromStore", func() { g, err = depgraph.FromStore(st, one) })
	if err != nil {
		return err
	}
	v["depgraph.from_store_ms"] = ms(d)
	var tallies []*depgraph.Tally
	d = p.timed("depgraph.Tally.Observe", func() {
		for _, cc := range corpus.Countries() {
			t := depgraph.NewTally(cc)
			rows := corpus.Get(cc).Sites
			for i := range rows {
				t.Observe(&rows[i])
			}
			tallies = append(tallies, t)
		}
	})
	v["depgraph.tally_ms"] = ms(d)
	d = p.timed("depgraph.FromTallies", func() { g, err = depgraph.FromTallies(tallies, one) })
	if err != nil {
		return err
	}
	v["depgraph.merge_closure_ms"] = ms(d)
	v["depgraph.top_spofs_ms"] = ms(p.timed("depgraph.Graph.TopSPOFs", func() { g.TopSPOFs(10) }))
	d = p.timed("depgraph.Build", func() { g = depgraph.Build(corpus, &depgraph.Options{Obs: fx.reg}) })
	v["depgraph.build_ms"] = ms(d)
	top := g.TopSPOFs(20)
	d = p.timed("depgraph.Graph.Simulate", func() {
		for _, s := range top {
			if _, err = g.Simulate(s.Provider); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	v["depgraph.simulate_us"] = us(d) / float64(len(top))

	d = p.timed("classify.Layer+CountryBreakdownIndexed", func() {
		var res *classify.Result
		if res, err = classify.Layer(corpus, countries.Hosting, classify.DefaultOptions()); err != nil {
			return
		}
		for _, cc := range corpus.Countries() {
			classify.CountryBreakdownIndexed(corpus, cc, countries.Hosting, res)
		}
	})
	v["classify.layer_ms"] = ms(d)
	return err
}

// nullWriter drops the body, as loadtest's in-process mode does.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// pipeListener hands net.Pipe ends to an http.Server: net/http with no
// kernel socket underneath.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// perOp runs fn n times on each of workers goroutines and returns the wall
// time per operation, total operations in the denominator: perfect
// scaling halves the one-goroutine figure on two cores, a contended cache
// line leaves it where it was or worse.
func perOp(workers, n int, fn func(worker int) func()) float64 {
	var wg sync.WaitGroup
	ops := make([]func(), workers)
	for w := range ops {
		ops[w] = fn(w)
	}
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(op func()) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op()
			}
		}(ops[w])
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(workers*n)
}

// serveLayers probes webdepd, net/http, the loopback socket and obs. The
// hit-path ladder uses one warm key throughout, so each rung's self time
// is the difference from the rung below.
func (p *prober) serveLayers(e *env, fx *serveFixture, hot hotSet) error {
	v := p.values
	var err error

	// A second daemon for everything that needs a cold cache, so the
	// fixture's stays warm.
	var d2 *webdepd.Daemon
	d := p.timed("webdepd.Start", func() {
		d2, err = webdepd.Start("127.0.0.1:0", webdepd.Config{StoreRoot: fx.root, Obs: obs.NewRegistry()})
	})
	if err != nil {
		return err
	}
	defer d2.Close()
	v["webdepd.start_ms"] = ms(d)
	d = p.timed("webdepd.Daemon.Reload", func() { _, err = d2.Reload() })
	if err != nil {
		return err
	}
	v["webdepd.reload_ms"] = ms(d)
	cold := []struct{ endpoint, target string }{
		{"epoch", "/api/epoch"},
		{"coverage", "/api/coverage"},
		{"scores", "/api/scores?layer=hosting"},
		{"rankcurve", "/api/rankcurve?layer=hosting&country=" + fx.ccs[0]},
		{"spof", "/api/spof?n=10"}, // pays the graph build; whatif after it does not
		{"whatif", whatIf(fx.top[0])},
		{"classes", "/api/classes?layer=hosting"},
	}
	for _, c := range cold {
		status := 0
		d = p.timed("webdepd cold "+c.endpoint, func() { status, _ = render(d2.Handler(), c.target) })
		if status != http.StatusOK {
			return fmt.Errorf("cold render of %s: status %d", c.target, status)
		}
		v["webdepd.cold_render_ms."+c.endpoint] = ms(d)
	}

	target := "/api/scores?layer=hosting&country=" + fx.ccs[0]
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return err
	}
	var want []byte
	for _, q := range hot.qs {
		if q.target == target {
			want = q.want
		}
	}
	if want == nil {
		return fmt.Errorf("the hot key set lacks %s", target)
	}

	var sink string
	id := p.tr.start(layersName, 0, "webdepd.ParseQuery+Key", 0)
	v["webdepd.parse_ns"] = perOp(1, e.sz.hitOps, func(int) func() {
		return func() {
			q, _ := webdepd.ParseQuery(u.Path, u.RawQuery)
			sink = q.Key()
		}
	})
	p.tr.end(id)
	_ = sink

	h := fx.d.Handler()
	serve := func(int) func() {
		// One request per goroutine: ServeMux records its match in it.
		uu := *u
		req := &http.Request{Method: http.MethodGet, URL: &uu}
		rw := &nullWriter{h: make(http.Header)}
		return func() { h.ServeHTTP(rw, req) }
	}
	_, objects, _ := p.timedAllocs("webdepd.Handler.ServeHTTP", func() { v["webdepd.handler_ns"] = perOp(1, e.sz.hitOps, serve) })
	v["webdepd.handler_allocs"] = float64(objects) / float64(e.sz.hitOps)
	p.timed("webdepd.Handler.ServeHTTP parallel", func() { v["webdepd.handler_ns_parallel"] = perOp(e.nproc, e.sz.hitOps, serve) })

	req := buildRequest("GET", target, fx.d.Addr)
	roundTrips := func(conn *wireConn, lat []int64) ([]int64, error) {
		for i := 0; i < e.sz.wireOps; i++ {
			t0 := time.Now()
			status, body, err := conn.do(req)
			if err != nil {
				return lat, err
			}
			if status != http.StatusOK || !bytes.Equal(body, want) {
				return lat, fmt.Errorf("%s: wrong answer (status %d)", target, status)
			}
			lat = append(lat, int64(time.Since(t0)))
		}
		return lat, nil
	}
	mean := func(lat []int64) float64 {
		var sum int64
		for _, x := range lat {
			sum += x
		}
		return float64(sum) / float64(len(lat))
	}

	ln := newPipeListener()
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(served) }()
	pipe := newWireConn(ln.dial())
	var lat []int64
	p.timed("net/http over net.Pipe", func() { lat, err = roundTrips(pipe, make([]int64, 0, e.sz.wireOps)) })
	pipe.Close()
	srv.Close()
	<-served
	if err != nil {
		return fmt.Errorf("in-memory round trips: %w", err)
	}
	v["nethttp.inmem_ns"] = mean(lat)

	conn, err := dialWire(fx.d.Addr)
	if err != nil {
		return err
	}
	p.timed("loopback round trip", func() { lat, err = roundTrips(conn, lat[:0]) })
	conn.Close()
	if err != nil {
		return fmt.Errorf("loopback round trips: %w", err)
	}
	v["loopback.rtt_ns"] = mean(lat)
	v["loopback.rtt_p99_ns"] = float64(percentile(sortSamples(lat), 0.99))

	// One second of serve-hot, to read the daemon's own counters across it.
	hits, misses := fx.reg.Counter("webdepd.hits").Value(), fx.reg.Counter("webdepd.misses").Value()
	coalesced := fx.reg.Counter("webdepd.coalesced").Value()
	hw, err := hotRun(e, fx, hot, e.sz.probeWindow, p.tr, fault{})
	if err != nil {
		return err
	}
	if hw.failed > 0 {
		return fmt.Errorf("%d of %d probe requests got a wrong answer", hw.failed, len(hw.lat))
	}
	hits = fx.reg.Counter("webdepd.hits").Value() - hits
	misses = fx.reg.Counter("webdepd.misses").Value() - misses
	coalesced = fx.reg.Counter("webdepd.coalesced").Value() - coalesced
	v["webdepd.hit_ratio"] = float64(hits) / float64(hits+misses+coalesced)
	v["webdepd.body_bytes_mean"] = float64(hw.bodySize) / float64(len(hw.lat))

	reg := obs.NewRegistry()
	counter := reg.Counter("bench.counter")
	hist := reg.Timing("bench.histogram.ms")
	inc := func(int) func() { return counter.Inc }
	observe := func(int) func() { return func() { hist.Observe(0.014) } }
	p.timed("obs.Counter.Inc", func() { v["obs.counter_inc_ns"] = perOp(1, e.sz.obsOps, inc) })
	p.timed("obs.Counter.Inc parallel", func() { v["obs.counter_inc_ns_parallel"] = perOp(e.nproc, e.sz.obsOps, inc) })
	p.timed("obs.Histogram.Observe", func() { v["obs.histogram_observe_ns"] = perOp(1, e.sz.obsOps, observe) })
	p.timed("obs.Histogram.Observe parallel", func() { v["obs.histogram_observe_ns_parallel"] = perOp(e.nproc, e.sz.obsOps, observe) })
	return nil
}

// Live probe sample counts.
const (
	appendSamples = 1000
	lookupSamples = 300
	scanSamples   = 200
)

// liveLayers probes checkpoint, resolver, tlsscan, fedcrawl and
// fedtransport: one campaign read through the registry, then each layer's
// calls replayed alone on what the campaign produced.
func (p *prober) liveLayers(e *env, fx *liveFixture) error {
	v := p.values
	keep, err := os.MkdirTemp(fx.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(keep)

	counters := func(names ...string) (sum int64) {
		for _, n := range names {
			sum += fx.reg.Counter(n).Value()
		}
		return sum
	}
	refusalNames := []string{"fedtransport.refusals.forged", "fedtransport.refusals.truncated",
		"fedtransport.refusals.replayed", "fedtransport.refusals.foreign", "fedtransport.refusals.corrupt"}
	dns, tls, fsync := histSum(fx.reg, "probe.dns.ms"), histSum(fx.reg, "probe.tls.ms"), histSum(fx.reg, "checkpoint.fsync_ms")
	retries, refusals := counters("resilience.retries"), counters(refusalNames...)
	it, err := fx.crawlIteration(p.tr, 0, keep)
	if err != nil {
		return err
	}
	if !it.ok {
		return fmt.Errorf("the probe campaign's merge differs from the reference crawl")
	}
	// Busy shares are of the vantages' probe workers' time: one worker each.
	workerMS := ms(it.run) * float64(len(fx.workers))
	v["resolver.busy_share"] = (histSum(fx.reg, "probe.dns.ms") - dns) / workerMS
	v["tlsscan.busy_share"] = (histSum(fx.reg, "probe.tls.ms") - tls) / workerMS
	v["checkpoint.fsync_busy_share"] = (histSum(fx.reg, "checkpoint.fsync_ms") - fsync) / workerMS
	v["pipeline.live_site_ms_p50"] = fx.reg.Timing("crawl.site_ms").Snapshot().Quantile(0.5)
	v["resilience.retries"] = float64(counters("resilience.retries") - retries)
	v["fedtransport.refusals"] = float64(counters(refusalNames...) - refusals)
	v["fedcrawl.run_ms"] = ms(it.run)
	v["fedcrawl.merge_ms"] = ms(it.merge)
	v["fedcrawl.waves"] = float64(it.stats.Waves)
	v["fedcrawl.redispatch_ratio"] = float64(it.stats.Redispatches) / float64(it.stats.Dispatches)
	v["checkpoint.journal_bytes_per_site"] = float64(it.journalBytes) / float64(fx.sites)

	journals, err := filepath.Glob(filepath.Join(keep, "journals", "*.journal"))
	if err != nil || len(journals) == 0 {
		return fmt.Errorf("the probe campaign left no journals (%v)", err)
	}
	sort.Strings(journals)

	type row struct {
		cc      string
		site    dataset.Website
		outcome dataset.SiteOutcome
	}
	var rows []row
	infos := make([]*checkpoint.JournalInfo, len(journals))
	d := p.timed("checkpoint.StreamSites", func() {
		for i, path := range journals {
			infos[i], err = checkpoint.StreamSites(path, nil, func(cc string, site dataset.Website, o dataset.SiteOutcome) error {
				if len(rows) < appendSamples {
					rows = append(rows, row{cc, site, o})
				}
				return nil
			})
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	v["checkpoint.stream_ms"] = ms(d)

	// The crawled rows again through a fresh journal, production fsync.
	j, err := checkpoint.Create(filepath.Join(keep, "replay.journal"), fx.epoch, fx.ccs, &checkpoint.Options{Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	lat := make([]int64, 0, len(rows))
	p.timed("checkpoint.Journal.Append", func() {
		for _, r := range rows {
			t0 := time.Now()
			j.Append(r.cc, r.site, r.outcome)
			lat = append(lat, int64(time.Since(t0)))
		}
	})
	if err := j.Err(); err != nil {
		return fmt.Errorf("replay journal disarmed: %w", err)
	}
	if err := j.Close(); err != nil {
		return err
	}
	v["checkpoint.append_us_p50"] = float64(percentile(sortSamples(lat), 0.5)) / 1e3

	var domains []string
	for _, cc := range fx.ccs {
		domains = append(domains, fx.domainsOf(cc)...)
	}
	dnsClient := resolver.NewClient(fx.ep.DNSAddr)
	dnsClient.Obs = obs.NewRegistry()
	lat = lat[:0]
	p.timed("resolver.Client.LookupA", func() {
		for _, dom := range domains[:min(lookupSamples, len(domains))] {
			t0 := time.Now()
			if _, err = dnsClient.LookupA(dom); err != nil {
				return
			}
			lat = append(lat, int64(time.Since(t0)))
		}
	})
	if err != nil {
		return fmt.Errorf("lookup probe: %w", err)
	}
	v["resolver.lookup_ms_p50"] = float64(percentile(sortSamples(lat), 0.5)) / 1e6

	scanner := tlsscan.New(fx.world.Owners)
	scanner.Obs = obs.NewRegistry()
	lat = lat[:0]
	p.timed("tlsscan.Scanner.Scan", func() {
		for _, dom := range domains[:min(scanSamples, len(domains))] {
			t0 := time.Now()
			if _, err = scanner.Scan(fx.ep.TLSAddr, dom); err != nil {
				return
			}
			lat = append(lat, int64(time.Since(t0)))
		}
	})
	if err != nil {
		return fmt.Errorf("scan probe: %w", err)
	}
	v["tlsscan.scan_ms_p50"] = float64(percentile(sortSamples(lat), 0.5)) / 1e6

	const partitions = 20
	d = p.timed("fedcrawl.Partition", func() {
		for i := 0; i < partitions; i++ {
			fedcrawl.Partition(fx.ccs, fx.domainsOf, len(fx.workers))
		}
	})
	v["fedcrawl.partition_us"] = us(d) / partitions

	// Sign and verify each produced journal as the vantage and the
	// coordinator do.
	var sign, verify time.Duration
	for i, path := range journals {
		shard := infos[i].Shard
		if shard == nil {
			return fmt.Errorf("%s carries no shard descriptor", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		key := fx.keys[shard.Worker]
		var art bytes.Buffer
		sign += p.timed("fedtransport.WriteArtifact", func() {
			err = fedtransport.WriteArtifact(&art, key,
				fedtransport.Meta{Worker: shard.Worker, Gen: shard.Gen, Epoch: fx.epoch, Countries: fx.ccs},
				int64(len(data)), bytes.NewReader(data))
		})
		if err != nil {
			return err
		}
		verify += p.timed("fedtransport.VerifyArtifact", func() {
			_, err = fedtransport.VerifyArtifact(art.Bytes(), fedtransport.Expect{
				Key: key, Worker: shard.Worker, Gen: shard.Gen, Epoch: fx.epoch, Countries: fx.ccs})
		})
		if err != nil {
			return err
		}
	}
	v["fedtransport.sign_ms"] = ms(sign)
	v["fedtransport.verify_ms"] = ms(verify)

	// An assignment with no jobs: the transport's fixed cost per dispatch.
	empty := filepath.Join(keep, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		return err
	}
	client, err := fx.newClient(empty)
	if err != nil {
		return err
	}
	defer client.Close()
	d = p.timed("fedtransport empty dispatch", func() {
		err = client.Dispatcher()(context.Background(), fx.workers[0], 1, nil)
	})
	if err != nil {
		return fmt.Errorf("empty dispatch: %w", err)
	}
	v["fedtransport.dispatch_empty_ms"] = ms(d)
	return nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/fedtransport"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// crawl-federated: a closed loop with one caller. Each iteration is a
// whole federated campaign over world-live: a coordinator dispatches
// signed shard assignments to nproc loopback vantage servers, each crawls
// its shard over real DNS and TLS sockets with one probe worker and the
// production journal (fsync per site), ships the journal back signed, and
// the journals are merged and saved as a store. Probe concurrency is held
// at nproc in total: above it, set-to-set medians drifted 17% on the
// two-core sandbox this was sized on.

const crawlName = "crawl-federated"

// liveFixture is world-live served on loopback, the vantage servers, and
// the unsharded reference crawl the federated merge must equal.
type liveFixture struct {
	world     *worldgen.World
	ep        *liveworld.Endpoints
	ccs       []string
	epoch     string
	sites     int
	refDigest string
	reg       *obs.Registry // coordinator, client and vantages record here
	dir       string
	vantages  []*fedtransport.VantageServer
	workers   []string
	urls      map[string]string
	keys      map[string][]byte
}

func (fx *liveFixture) domainsOf(cc string) []string { return fx.world.Truth.Get(cc).Domains() }

// newLive is the production crawler wiring (cmd/webdep's liveFactory) with
// the probe worker count made explicit.
func (fx *liveFixture) newLive(workers int, reg *obs.Registry) *pipeline.Live {
	return &pipeline.Live{
		Pipeline:       pipeline.FromWorld(fx.world),
		DNS:            resolver.NewClient(fx.ep.DNSAddr),
		Scanner:        tlsscan.New(fx.world.Owners),
		TLSAddr:        fx.ep.TLSAddr,
		Workers:        workers,
		DetectLanguage: true,
		Resilience:     resilience.NewPolicy(),
		Obs:            reg,
	}
}

func buildLive(e *env, f fault) (*liveFixture, error) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               e.seed,
		SitesPerCountry:    e.sz.liveSites,
		Countries:          e.sz.liveCountries,
		DomesticPerCountry: e.sz.liveDomestic,
	})
	if err != nil {
		return nil, fmt.Errorf("building world-live: %w", err)
	}
	fx := &liveFixture{world: w, ccs: w.Config.Countries, epoch: w.Config.Epoch, reg: obs.NewRegistry(),
		urls: map[string]string{}, keys: map[string][]byte{}}
	if fx.ep, err = liveworld.Serve(w); err != nil {
		return nil, fmt.Errorf("serving world-live: %w", err)
	}
	// The reference: one unsharded crawl with no journal, on its own
	// registry so its probes are not counted as the workload's.
	ref, err := fx.newLive(e.nproc, obs.NewRegistry()).CrawlCorpus(context.Background(), fx.epoch, fx.ccs, fx.domainsOf, nil)
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("reference crawl: %w", err)
	}
	// A coordinator only returns once no site has a lost field, so a
	// reference that lost one could never be matched.
	for _, cc := range fx.ccs {
		if cov := ref.CoverageOf(cc); cov == nil || cov.Lost() > 0 {
			fx.close()
			return nil, fmt.Errorf("reference crawl of %s lost probes: %+v", cc, cov)
		}
	}
	fx.sites = ref.TotalSites()
	fx.refDigest = corpusDigest(ref)

	if fx.dir, err = e.scratch("crawl"); err != nil {
		fx.close()
		return nil, err
	}
	for i := 0; i < e.nproc; i++ {
		name := fmt.Sprintf("w%d", i) // fedcrawl's worker naming
		key := []byte(fmt.Sprintf("bench-key-%d-%d", e.seed, i))
		scratch := filepath.Join(fx.dir, "vantage-"+name)
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			fx.close()
			return nil, err
		}
		v, err := fedtransport.ServeVantage("127.0.0.1:0", fedtransport.VantageConfig{
			Key: key,
			NewLive: func() *pipeline.Live {
				l := fx.newLive(1, fx.reg)
				if f.deadTLS {
					// Port 1 refuses at once; one attempt keeps the test short.
					l.TLSAddr, l.Resilience = "127.0.0.1:1", &resilience.Policy{MaxAttempts: 1}
				}
				return l
			},
			Dir: scratch,
			Obs: fx.reg,
		})
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("starting vantage %s: %w", name, err)
		}
		fx.vantages = append(fx.vantages, v)
		fx.workers = append(fx.workers, name)
		fx.urls[name] = "http://" + v.Addr
		fx.keys[name] = key
	}
	return fx, nil
}

func (fx *liveFixture) close() {
	for _, v := range fx.vantages {
		v.Close()
	}
	if fx.ep != nil {
		fx.ep.Close()
	}
	if fx.dir != "" {
		os.RemoveAll(fx.dir)
	}
}

// newClient is a transport client admitting artifacts into dir, with the
// package's default resilience policy.
func (fx *liveFixture) newClient(dir string) (*fedtransport.Client, error) {
	return fedtransport.NewClient(fedtransport.ClientConfig{
		Workers: fx.workers, URL: fx.urls, Key: fx.keys,
		Dir: dir, Epoch: fx.epoch, Countries: fx.ccs, Obs: fx.reg,
	})
}

// crawlIter is one campaign's measurements.
type crawlIter struct {
	run, merge, save time.Duration
	storeBytes       int64
	journalBytes     int64
	ok               bool
	traced           bool
	stats            fedcrawl.Stats
}

func (it crawlIter) wall() time.Duration { return it.run + it.merge + it.save }

// crawlIteration runs one campaign. keep, when non-empty, is a directory
// the journals are left in for the layer probes; otherwise everything the
// iteration wrote is removed.
func (fx *liveFixture) crawlIteration(tr *tracer, iter int, keep string) (crawlIter, error) {
	it := crawlIter{traced: tr != nil}
	dir := keep
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp(fx.dir, "campaign-"); err != nil {
			return it, err
		}
		defer os.RemoveAll(dir)
	}
	journals := filepath.Join(dir, "journals")
	if err := os.MkdirAll(journals, 0o755); err != nil {
		return it, err
	}
	client, err := fx.newClient(journals)
	if err != nil {
		return it, err
	}
	defer client.Close()

	root := tr.start(crawlName, iter, "iteration", 0)
	defer tr.end(root)

	runID := tr.start(crawlName, iter, "fedcrawl.Coordinator.Run", root)
	dispatch := client.Dispatcher()
	if tr != nil {
		inner := dispatch
		dispatch = func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
			id := tr.start(crawlName, iter, "fedtransport.Client.dispatch", runID)
			defer tr.end(id)
			return inner(ctx, worker, gen, jobs)
		}
	}
	t0 := time.Now()
	coord, err := fedcrawl.New(fedcrawl.Config{
		Epoch: fx.epoch, Countries: fx.ccs, DomainsOf: fx.domainsOf,
		Workers: len(fx.workers), Dir: journals, Dispatch: dispatch, Obs: fx.reg,
	})
	if err != nil {
		return it, err
	}
	res, err := coord.Run(context.Background())
	it.run = time.Since(t0)
	tr.end(runID)
	if err != nil {
		return it, err
	}
	it.stats = res.Stats

	id := tr.start(crawlName, iter, "fedcrawl.Merge", root)
	t0 = time.Now()
	merged, err := fedcrawl.Merge(journals, fx.epoch, fx.ccs, fx.reg)
	it.merge = time.Since(t0)
	tr.end(id)
	if err != nil {
		return it, err
	}

	store := filepath.Join(dir, "store")
	id = tr.start(crawlName, iter, "corpusstore.Save", root)
	t0 = time.Now()
	err = corpusstore.Save(store, merged.Corpus, &corpusstore.Options{Obs: fx.reg})
	it.save = time.Since(t0)
	tr.end(id)
	if err != nil {
		return it, err
	}

	it.ok = corpusDigest(merged.Corpus) == fx.refDigest
	if it.storeBytes, err = dirBytes(store); err != nil {
		return it, err
	}
	it.journalBytes, err = dirBytes(journals)
	return it, err
}

// crawlLoop mirrors epochLoop. failed counts sites: every site of a
// campaign that errors (a coordinator gives up on a site whose field stays
// lost) or whose merge is not byte-identical to the reference.
func (fx *liveFixture) crawlLoop(window time.Duration, warmup, minIters int, tr *tracer) (iters []crawlIter, failed int, err error) {
	for i := 0; i < warmup; i++ {
		// A failed warm-up is not reported: the measured campaigns fail the
		// same way and are counted.
		_, _ = fx.crawlIteration(nil, -1-i, "")
	}
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < window; i++ {
		it, err := fx.crawlIteration(tr.alternate(i), i, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crawl-federated: iteration %d: %v\n", i, err)
		}
		if err != nil || !it.ok {
			failed += fx.sites
		}
		iters = append(iters, it)
	}
	return iters, failed, nil
}

func crawlSetup(e *env, f fault) (*liveFixture, time.Duration, error) {
	return timeSetup(func() (*liveFixture, error) { return buildLive(e, f) })
}

// runCrawl is the untraced workload.
func runCrawl(e *env, window time.Duration, f fault) (*outcome, error) {
	fx, setup, err := crawlSetup(e, f)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	iters, failed, err := fx.crawlLoop(window, 1, 3, nil)
	if err != nil {
		return nil, err
	}
	return crawlOutcome(fx, iters, failed, setup), nil
}

func crawlOutcome(fx *liveFixture, iters []crawlIter, failed int, setup time.Duration) *outcome {
	var walls, runs []time.Duration
	var storeBytes int64
	for _, it := range iters {
		walls = append(walls, it.wall())
		runs = append(runs, it.run)
		if it.storeBytes > storeBytes {
			storeBytes = it.storeBytes
		}
	}
	sites := float64(fx.sites)
	o := &outcome{workload: crawlName, attempted: len(iters) * fx.sites, failed: failed, samples: len(iters)}
	o.values = map[string]float64{
		"p50_ms":               ms(median(walls)),
		"store_bytes_per_site": float64(storeBytes) / sites,
		"setup_s":              setup.Seconds(),
	}
	o.details = []detail{
		{"crawl_sites_per_s", "1/s", sites / median(walls).Seconds(), len(iters), "sites / median campaign wall"},
		{"crawl_run_p50_ms", "ms", ms(median(runs)), len(iters), "Coordinator.Run alone"},
	}
	return o
}

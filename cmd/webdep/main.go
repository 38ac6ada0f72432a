// Command webdep generates a calibrated synthetic world, measures it
// through the enrichment pipeline, and exports per-country datasets in the
// release CSV format.
//
// Usage:
//
//	webdep -out data/ -sites 10000                 # full 150-country world
//	webdep -countries TH,IR,US -sites 2000 -out d/ # subset
//	webdep -epoch2 -out data/                      # also emit the 2025-05 epoch
//	webdep -live -countries TH -sites 50           # crawl over real sockets
//	webdep -out data/ -store corpus.store          # also persist the binary corpus store
//	webdep -from-store corpus.store -out data/     # export and score a stored corpus
//	webdep -out data/ -spof                        # rank single points of failure
//	webdep -out data/ -what-if Cloudflare          # simulate one provider failing
//	webdep -serve :8080 -countries US,DE -sites 500  # score-query daemon over an in-memory world
//	webdep -serve :8080 -from-store corpus.store     # daemon over a stored corpus
//	webdep -reload-store /var/webdep/generations     # daemon with SIGHUP/POST /reload epoch hot-swap
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/dnsserver"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/fedtransport"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/report"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/webdepd"
	"github.com/webdep/webdep/internal/worldgen"
)

// options collects the command's knobs; run consumes one instead of a
// positional parameter list.
type options struct {
	Seed      int64
	Sites     int
	Out       string
	Countries []string
	Epoch2    bool
	Live      bool
	GeoErr    bool
	Summary   bool
	Zones     bool
	Workers   int
	// FailFast and MinCoverage plumb through to the live crawl's
	// resilience accounting; see pipeline.Live.
	FailFast    bool
	MinCoverage float64
	// Checkpoint, when non-empty, journals every completed live probe to
	// <dir>/<epoch>.journal so an interrupted crawl can be resumed;
	// Resume reopens that journal and re-probes only missing or lost
	// sites. See internal/checkpoint.
	Checkpoint string
	Resume     bool
	// Federate, when > 1, runs the live crawl as a federation of N shard
	// workers coordinated through per-worker journals under the
	// -checkpoint directory; Merge skips crawling entirely and reassembles
	// a corpus from an existing directory of shard journals. See
	// internal/fedcrawl.
	Federate int
	Merge    string
	// Store, when non-empty, also persists the measured corpus as a binary
	// sharded store at the given directory (see internal/corpusstore);
	// FromStore skips world building entirely and exports/scores an
	// existing store instead.
	Store     string
	FromStore string
	// SPOF ranks the corpus's single points of failure by transitive
	// blast radius; WhatIf simulates one named provider failing and
	// reports per-country losses. Both run on the provider dependency
	// graph (see internal/depgraph) and work with every corpus source,
	// including -from-store, where the graph is built by streaming the
	// shards.
	SPOF   bool
	WhatIf string
	// Stats prints the observability registry (stage timings, probe
	// latencies, retry/breaker counters) after the run.
	Stats bool
	// DebugAddr, when non-empty, serves /debug/vars and /debug/pprof on
	// the given address for the duration of the run.
	DebugAddr string
	// Serve, when non-empty, runs the process as the score-query daemon
	// (internal/webdepd) on the given address instead of exporting: the
	// corpus source is the in-memory generated world, -from-store, or
	// -reload-store. ReloadStore serves the newest complete store
	// generation under a root directory and hot-swaps on SIGHUP or
	// POST /reload; it implies -serve on localhost:8080.
	Serve       string
	ReloadStore string
	// ServeVantage, when non-empty, runs the process as a remote
	// federation vantage worker instead of a coordinator: it builds the
	// world locally, serves it over DNS and TLS, and answers signed shard
	// assignments on the given address with signed journal artifacts.
	// Transport is the coordinator half: one vantage base URL per
	// -federate worker, dispatching shards over HTTP instead of crawling
	// in-process. VantageKeys holds the HMAC keys authenticating both
	// directions: exactly one for -serve-vantage, one shared key or one
	// per vantage for -transport. See internal/fedtransport.
	ServeVantage string
	Transport    []string
	VantageKeys  []string

	// Test seams. onVantageReady, when non-nil, receives the bound
	// address once a -serve-vantage worker is listening; vantageCtx, when
	// non-nil, replaces the interrupt-signal context that keeps it
	// serving. onServeReady and serveCtx are the same seams for -serve.
	// Production leaves all of them nil.
	onVantageReady func(addr string)
	vantageCtx     context.Context
	onServeReady   func(addr string)
	serveCtx       context.Context
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed")
		sites     = flag.Int("sites", 10000, "sites per country")
		out       = flag.String("out", "webdep-data", "output directory")
		subset    = flag.String("countries", "", "comma-separated country subset (default: all 150)")
		epoch2    = flag.Bool("epoch2", false, "also generate and export the 2025-05 epoch")
		live      = flag.Bool("live", false, "measure over real sockets (DNS + TLS); use small worlds")
		geoErr    = flag.Bool("geoerr", false, "enable the 10.6% geolocation error model")
		summary   = flag.Bool("summary", true, "print per-layer score summaries")
		zones     = flag.Bool("zones", false, "also dump the world's DNS zones as master files")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "measurement concurrency: countries in fast mode, crawl jobs in live mode (output is identical for any value)")
		failFast  = flag.Bool("fail-fast", false, "live mode: abort at the first country whose coverage falls below -min-coverage instead of flagging it degraded")
		minCov    = flag.Float64("min-coverage", 1, "live mode: per-country coverage threshold; countries below it are flagged degraded (negative disables the check)")
		ckpt      = flag.String("checkpoint", "", "live mode: journal completed probes to <dir>/<epoch>.journal for crash-safe resume")
		resume    = flag.Bool("resume", false, "reopen the -checkpoint journal and re-probe only missing or lost sites")
		federate  = flag.Int("federate", 0, "live mode: shard the crawl across N federated workers journaling under the -checkpoint directory")
		merge     = flag.String("merge", "", "skip crawling: merge an existing directory of federated shard journals into a corpus")
		store     = flag.String("store", "", "also persist the measured corpus as a binary sharded store at this directory")
		fromStore = flag.String("from-store", "", "skip world building: export and score an existing corpus store")
		spof      = flag.Bool("spof", false, "rank the corpus's top single points of failure by transitive blast radius")
		whatIf    = flag.String("what-if", "", "simulate this provider failing and report per-country hosting/DNS/CA losses")
		stats     = flag.Bool("stats", false, "print the observability registry (stage timings, probe latencies, retry/breaker counters) after the run")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
		serve     = flag.String("serve", "", "run the score-query daemon on this address over the chosen corpus source (in-memory world, -from-store, or -reload-store)")
		reloadSt  = flag.String("reload-store", "", "serve the newest complete store generation under this root, hot-swapping on SIGHUP or POST /reload (implies -serve localhost:8080)")
		serveVant = flag.String("serve-vantage", "", "run as a remote federation vantage worker answering signed shard assignments on this address (requires -vantage-key)")
		transport = flag.String("transport", "", "comma-separated vantage base URLs, one per -federate worker: dispatch shards over HTTP instead of crawling in-process")
		vantKey   = flag.String("vantage-key", "", "comma-separated HMAC keys authenticating the federation transport: one shared key, or one per vantage")
	)
	flag.Parse()

	opts := options{
		Seed: *seed, Sites: *sites, Out: *out, Countries: splitList(*subset),
		Epoch2: *epoch2, Live: *live, GeoErr: *geoErr, Summary: *summary,
		Zones: *zones, Workers: *workers,
		FailFast: *failFast, MinCoverage: *minCov,
		Checkpoint: *ckpt, Resume: *resume,
		Federate: *federate, Merge: *merge,
		Store: *store, FromStore: *fromStore,
		SPOF: *spof, WhatIf: *whatIf,
		Stats: *stats, DebugAddr: *debugAddr,
		Serve: *serve, ReloadStore: *reloadSt,
		ServeVantage: *serveVant, Transport: splitRaw(*transport), VantageKeys: splitRaw(*vantKey),
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "webdep:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.ToUpper(p))
		}
	}
	return out
}

// splitRaw splits a comma-separated list preserving case — URLs and HMAC
// keys, unlike country codes, are case-sensitive.
func splitRaw(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// validate rejects contradictory flag combinations up front, before any
// expensive work (or worse, a partial output directory) can happen. Every
// rule names both flags so the usage error reads like the fix.
func (opts options) validate() error {
	if opts.Serve != "" || opts.ReloadStore != "" {
		switch {
		case opts.ServeVantage != "":
			return fmt.Errorf("-serve answers score queries; -serve-vantage answers federation shard assignments — run one per process")
		case opts.Live:
			return fmt.Errorf("-serve queries an already-measured corpus; it cannot be combined with -live (crawl first, persist with -store, then serve)")
		case opts.Merge != "":
			return fmt.Errorf("-serve and -merge are different consumers of a corpus; merge to a -store first, then serve it")
		case opts.ReloadStore != "" && opts.FromStore != "":
			return fmt.Errorf("-reload-store and -from-store are mutually exclusive corpus sources")
		case opts.Store != "":
			return fmt.Errorf("-serve reads a corpus; -store writes one — persist in a separate run, then serve it")
		case opts.Epoch2:
			return fmt.Errorf("-serve answers one epoch per generation; it cannot be combined with -epoch2")
		case opts.Zones:
			return fmt.Errorf("-zones needs a world export run; it cannot be combined with -serve")
		case opts.SPOF || opts.WhatIf != "":
			return fmt.Errorf("-serve already exposes /api/spof and /api/what-if; the -spof and -what-if flags belong to export runs")
		}
	}
	if opts.ServeVantage != "" {
		switch {
		case opts.Federate > 0:
			return fmt.Errorf("-serve-vantage is the worker half of the transport; -federate belongs on the coordinator")
		case len(opts.Transport) > 0:
			return fmt.Errorf("-serve-vantage answers the transport; -transport belongs on the coordinator")
		case opts.Merge != "":
			return fmt.Errorf("-serve-vantage crawls on demand; it cannot be combined with -merge")
		case opts.FromStore != "":
			return fmt.Errorf("-serve-vantage crawls on demand; it cannot be combined with -from-store")
		case opts.Live:
			return fmt.Errorf("-serve-vantage always crawls over real sockets; -live is implied and must not be passed")
		case opts.Checkpoint != "":
			return fmt.Errorf("-serve-vantage keeps per-assignment scratch journals of its own; it cannot be combined with -checkpoint")
		case opts.Epoch2:
			return fmt.Errorf("-serve-vantage serves the assigned epoch; it cannot be combined with -epoch2")
		case len(opts.VantageKeys) != 1:
			return fmt.Errorf("-serve-vantage requires exactly one -vantage-key to sign artifacts with, got %d", len(opts.VantageKeys))
		}
	}
	if opts.Checkpoint != "" && !opts.Live {
		return fmt.Errorf("-checkpoint only applies to -live crawls")
	}
	if opts.Resume && opts.Checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if opts.Federate < 0 {
		return fmt.Errorf("-federate needs a positive worker count, got %d", opts.Federate)
	}
	if opts.Federate > 0 {
		switch {
		case !opts.Live:
			return fmt.Errorf("-federate shards a live crawl; it requires -live")
		case opts.Checkpoint == "":
			return fmt.Errorf("-federate journals its shard workers under -checkpoint; pass a directory")
		case opts.Resume:
			return fmt.Errorf("-resume does not apply to -federate: a federated run always resumes from the journals already in its -checkpoint directory")
		}
	}
	if opts.Merge != "" {
		switch {
		case opts.Federate > 0:
			return fmt.Errorf("-merge and -federate are mutually exclusive: -federate already merges when the crawl converges")
		case opts.Checkpoint != "":
			return fmt.Errorf("-merge reads shard journals from its own directory argument; it cannot be combined with -checkpoint")
		case opts.Live:
			return fmt.Errorf("-merge reassembles an existing journal directory; it cannot be combined with -live")
		case opts.FromStore != "":
			return fmt.Errorf("-merge and -from-store are mutually exclusive corpus sources")
		case opts.Epoch2:
			return fmt.Errorf("-merge exports one journaled epoch; it cannot be combined with -epoch2")
		case opts.Zones:
			return fmt.Errorf("-zones needs a generated world; it cannot be combined with -merge")
		}
	}
	if opts.FromStore != "" {
		switch {
		case opts.Live:
			return fmt.Errorf("-from-store reads an existing corpus; it cannot be combined with -live")
		case opts.Store != "":
			return fmt.Errorf("-from-store and -store are mutually exclusive")
		case opts.Epoch2:
			return fmt.Errorf("-from-store exports one stored epoch; it cannot be combined with -epoch2")
		case opts.Zones:
			return fmt.Errorf("-zones needs a generated world; it cannot be combined with -from-store")
		}
	}
	if len(opts.Transport) > 0 {
		switch {
		case opts.Federate == 0:
			return fmt.Errorf("-transport dispatches federated shards over HTTP; it requires -federate")
		case len(opts.Transport) != opts.Federate:
			return fmt.Errorf("-transport needs one vantage URL per -federate worker: got %d URLs for %d workers", len(opts.Transport), opts.Federate)
		case len(opts.VantageKeys) != 1 && len(opts.VantageKeys) != opts.Federate:
			return fmt.Errorf("-transport requires -vantage-key: one shared key, or one per vantage (%d), got %d", opts.Federate, len(opts.VantageKeys))
		}
	}
	if len(opts.VantageKeys) > 0 && opts.ServeVantage == "" && len(opts.Transport) == 0 {
		return fmt.Errorf("-vantage-key authenticates the federation transport; it requires -serve-vantage or -transport")
	}
	return nil
}

func run(opts options) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if opts.DebugAddr != "" {
		srv, err := obs.ServeDebug(opts.DebugAddr, obs.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr)
	}
	if opts.Stats {
		defer func() {
			report.StatsTable(os.Stderr, "observability", obs.Default().Snapshot())
		}()
	}
	if opts.ServeVantage != "" {
		return runServeVantage(opts)
	}
	if opts.ReloadStore != "" && opts.Serve == "" {
		// -reload-store names the corpus source; -serve is implied.
		opts.Serve = "localhost:8080"
	}
	if opts.Serve != "" {
		return runServe(opts)
	}
	if opts.FromStore != "" {
		return runFromStore(opts)
	}
	if opts.Merge != "" {
		return runMerge(opts)
	}

	cfg := worldgen.Config{Seed: opts.Seed, SitesPerCountry: opts.Sites, Countries: opts.Countries}
	if opts.GeoErr {
		cfg.GeoErrorRate = 0.106
	}
	fmt.Fprintf(os.Stderr, "building world (seed=%d, sites=%d)...\n", opts.Seed, opts.Sites)
	buildSpan := obs.StartSpan(obs.Default().Timing("stage.build.ms"))
	w, err := worldgen.Build(cfg)
	buildSpan.End()
	if err != nil {
		return err
	}

	var corpus *dataset.Corpus
	if opts.Live && opts.Federate > 0 {
		corpus, err = measureFederated(w, opts)
	} else if opts.Live {
		corpus, err = measureLive(w, opts)
	} else {
		p := pipeline.FromWorld(w)
		p.Workers = opts.Workers
		corpus, err = p.MeasureWorld(w)
	}
	if err != nil {
		return err
	}
	exportSpan := obs.StartSpan(obs.Default().Timing("stage.export.ms"))
	err = export(opts.Out, corpus)
	exportSpan.End()
	if err != nil {
		return err
	}
	if opts.Zones {
		if err := exportZones(opts.Out, w); err != nil {
			return err
		}
	}
	if opts.Store != "" {
		if err := corpusstore.Save(opts.Store, corpus, &corpusstore.Options{Workers: opts.Workers}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored corpus (%d sites, %d countries) to %s\n",
			corpus.TotalSites(), len(corpus.Lists), opts.Store)
	}
	if opts.Live {
		report.CoverageTable(os.Stderr, "crawl coverage", corpus)
	}
	if opts.Summary {
		printSummary(corpus.ScoreSet(), corpus.CoverageByCountry)
	}
	if opts.wantGraph() {
		if err := blastRadius(depgraph.Build(corpus, &depgraph.Options{Workers: opts.Workers}), opts); err != nil {
			return err
		}
	}

	if opts.Epoch2 {
		fmt.Fprintln(os.Stderr, "generating 2025-05 epoch...")
		next, err := worldgen.BuildNextEpoch(w, "2025-05")
		if err != nil {
			return err
		}
		p := pipeline.FromWorld(w)
		p.Workers = opts.Workers
		corpus2, err := p.MeasureWorld(next)
		if err != nil {
			return err
		}
		if err := export(opts.Out, corpus2); err != nil {
			return err
		}
	}
	return nil
}

func measureLive(w *worldgen.World, opts options) (*dataset.Corpus, error) {
	fmt.Fprintln(os.Stderr, "serving world over DNS and TLS...")
	ep, err := liveworld.Serve(w)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	liveP := &pipeline.Live{
		Pipeline:       pipeline.FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        opts.Workers,
		DetectLanguage: true,
		Resilience:     resilience.NewPolicy(),
		FailFast:       opts.FailFast,
		MinCoverage:    opts.MinCoverage,
	}
	if opts.Checkpoint != "" {
		j, err := openJournal(opts, w)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		liveP.Checkpoint = j
	}
	fmt.Fprintf(os.Stderr, "crawling %d countries over real sockets (%d workers)...\n",
		len(w.Config.Countries), opts.Workers)
	// CrawlCorpus serializes progress callbacks, so these per-country lines
	// never interleave even though countries finish concurrently.
	corpus, err := liveP.CrawlCorpus(context.Background(), w.Config.Epoch, w.Config.Countries,
		func(cc string) []string { return w.Truth.Get(cc).Domains() },
		func(cc string, sites int) {
			fmt.Fprintf(os.Stderr, "crawled %s (%d sites)\n", cc, sites)
		})
	if err != nil {
		return nil, err
	}
	if j := liveP.Checkpoint; j != nil {
		if jerr := j.Err(); jerr != nil {
			// A dead checkpoint disk never fails the crawl, but the operator
			// must know this run is not restartable.
			fmt.Fprintf(os.Stderr, "WARNING: checkpoint journaling disarmed mid-crawl (%v); this run cannot be resumed\n", jerr)
		} else {
			st := j.Stats()
			fmt.Fprintf(os.Stderr, "checkpoint: %d sites journaled, %d replayed from %s\n",
				st.RecordsWritten, st.SitesSkipped, j.Path())
		}
	}
	return corpus, nil
}

// liveFactory builds the per-worker live crawler used by both the
// in-process federation and the -serve-vantage worker: same pipeline, same
// resilience policy, so a remote crawl measures exactly what a local one
// would.
func liveFactory(w *worldgen.World, ep *liveworld.Endpoints, workers int) func(worker string) *pipeline.Live {
	return func(worker string) *pipeline.Live {
		return &pipeline.Live{
			Pipeline:       pipeline.FromWorld(w),
			DNS:            resolver.NewClient(ep.DNSAddr),
			Scanner:        tlsscan.New(w.Owners),
			TLSAddr:        ep.TLSAddr,
			Workers:        workers,
			DetectLanguage: true,
			Resilience:     resilience.NewPolicy(),
		}
	}
}

// measureFederated runs the live crawl as a federation of -federate shard
// workers, each journaling to its own file under the -checkpoint
// directory. The coordinator trusts only those journals: rerunning the
// same command after a crash (or after deliberately killing it) resumes
// from whatever the workers managed to make durable.
//
// With -transport, the workers are remote -serve-vantage processes: each
// shard goes out as a signed HTTP assignment and comes back as a signed
// journal artifact that is verified before it is admitted into the
// directory. The durable-state contract is unchanged — the coordinator
// still believes only what the journals on disk say.
func measureFederated(w *worldgen.World, opts options) (*dataset.Corpus, error) {
	if err := os.MkdirAll(opts.Checkpoint, 0o755); err != nil {
		return nil, err
	}
	cfg := fedcrawl.Config{
		Epoch:     w.Config.Epoch,
		Countries: w.Config.Countries,
		DomainsOf: func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:   opts.Federate,
		Dir:       opts.Checkpoint,
	}
	var client *fedtransport.Client
	if len(opts.Transport) > 0 {
		// Remote vantages serve their own copy of the world (same seed);
		// the coordinator only assigns shards and verifies what comes back.
		var err error
		client, err = newTransportClient(w, opts)
		if err != nil {
			return nil, err
		}
		defer client.Close()
		cfg.Dispatch = client.Dispatcher()
	} else {
		fmt.Fprintln(os.Stderr, "serving world over DNS and TLS...")
		ep, err := liveworld.Serve(w)
		if err != nil {
			return nil, err
		}
		defer ep.Close()
		cfg.NewLive = liveFactory(w, ep, opts.Workers)
	}
	if opts.Federate >= 2 {
		// With at least two vantages available, probe every shard from a
		// second one as well: the overlap is what feeds the cross-vantage
		// disagreement table below.
		cfg.Replicate = 1
	}
	coord, err := fedcrawl.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "federated crawl: %d workers journaling under %s...\n",
		opts.Federate, opts.Checkpoint)
	res, err := coord.Run(context.Background())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "federated crawl: %d waves, %d dispatches (%d re-dispatched, %d replicas), %d journals merged\n",
		res.Stats.Waves, res.Stats.Dispatches, res.Stats.Redispatches, res.Stats.Replicas, len(res.Journals))
	if client != nil {
		st := client.Stats()
		refused := st.Refusals.Forged + st.Refusals.Truncated + st.Refusals.Replayed +
			st.Refusals.Foreign + st.Refusals.Corrupt
		fmt.Fprintf(os.Stderr, "transport: %d dispatches, %d artifacts admitted, %d refused, %d detached arrivals, %d worker deaths\n",
			st.Dispatches, st.Admitted, refused, st.DetachedArrivals, st.WorkerDeaths)
	}
	report.DisagreementTable(os.Stderr, "cross-vantage disagreement", &res.Disagreement)
	return res.Corpus, nil
}

// newTransportClient assembles the fedtransport client for -transport:
// fedcrawl names its workers w0..wN-1, so URL i and key i (or the single
// shared key) bind to worker i.
func newTransportClient(w *worldgen.World, opts options) (*fedtransport.Client, error) {
	workers := make([]string, opts.Federate)
	urls := make(map[string]string, opts.Federate)
	keys := make(map[string][]byte, opts.Federate)
	for i := range workers {
		name := fmt.Sprintf("w%d", i)
		workers[i] = name
		urls[name] = opts.Transport[i]
		key := opts.VantageKeys[0]
		if len(opts.VantageKeys) > 1 {
			key = opts.VantageKeys[i]
		}
		keys[name] = []byte(key)
	}
	return fedtransport.NewClient(fedtransport.ClientConfig{
		Workers:   workers,
		URL:       urls,
		Key:       keys,
		Dir:       opts.Checkpoint,
		Epoch:     w.Config.Epoch,
		Countries: w.Config.Countries,
		Obs:       obs.Default(),
	})
}

// runServeVantage runs the process as a remote federation vantage worker:
// it builds the same world the coordinator will assign shards from (the
// seed is the shared contract), serves it over DNS and TLS locally, and
// answers signed /crawl assignments with signed journal artifacts until
// interrupted.
func runServeVantage(opts options) error {
	cfg := worldgen.Config{Seed: opts.Seed, SitesPerCountry: opts.Sites, Countries: opts.Countries}
	if opts.GeoErr {
		cfg.GeoErrorRate = 0.106
	}
	fmt.Fprintf(os.Stderr, "building world (seed=%d, sites=%d)...\n", opts.Seed, opts.Sites)
	w, err := worldgen.Build(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "serving world over DNS and TLS...")
	ep, err := liveworld.Serve(w)
	if err != nil {
		return err
	}
	defer ep.Close()
	factory := liveFactory(w, ep, opts.Workers)
	v, err := fedtransport.ServeVantage(opts.ServeVantage, fedtransport.VantageConfig{
		Key:     []byte(opts.VantageKeys[0]),
		NewLive: func() *pipeline.Live { return factory("") },
		Obs:     obs.Default(),
	})
	if err != nil {
		return err
	}
	defer v.Close()
	fmt.Fprintf(os.Stderr, "vantage worker answering signed shard assignments on %s\n", v.Addr)
	if opts.onVantageReady != nil {
		opts.onVantageReady(v.Addr)
	}
	ctx := opts.vantageCtx
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "vantage worker shutting down")
	return nil
}

// runServe runs the process as the score-query daemon until interrupted.
// The corpus source is, in priority order: the -reload-store generation
// root (hot-swappable), the -from-store store (served through the same
// root mechanism — a bare store is its own single generation, so /reload
// re-reads it), or a generated in-memory world measured through the fast
// pipeline. SIGHUP triggers the same hot swap POST /reload does.
func runServe(opts options) error {
	cfg := webdepd.Config{Workers: opts.Workers, Obs: obs.Default()}
	switch {
	case opts.ReloadStore != "":
		cfg.StoreRoot = opts.ReloadStore
	case opts.FromStore != "":
		cfg.StoreRoot = opts.FromStore
	default:
		wcfg := worldgen.Config{Seed: opts.Seed, SitesPerCountry: opts.Sites, Countries: opts.Countries}
		if opts.GeoErr {
			wcfg.GeoErrorRate = 0.106
		}
		fmt.Fprintf(os.Stderr, "building world (seed=%d, sites=%d)...\n", opts.Seed, opts.Sites)
		w, err := worldgen.Build(wcfg)
		if err != nil {
			return err
		}
		p := pipeline.FromWorld(w)
		p.Workers = opts.Workers
		if cfg.Corpus, err = p.MeasureWorld(w); err != nil {
			return err
		}
	}

	d, err := webdepd.Start(opts.Serve, cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	label, _ := d.Generation()
	fmt.Fprintf(os.Stderr, "webdepd answering score queries on http://%s/api/ (generation %s)\n", d.Addr, label)
	if opts.onServeReady != nil {
		opts.onServeReady(d.Addr)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			label, err := d.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "webdepd: SIGHUP reload failed: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "webdepd: swapped to generation %s\n", label)
		}
	}()

	ctx := opts.serveCtx
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "webdepd shutting down")
	return nil
}

// runMerge reassembles a corpus from an existing directory of federated
// shard journals — the offline half of -federate, for when the crawl ran
// elsewhere and only the journals travelled. The campaign identity (epoch,
// country set) is adopted from the journals themselves.
func runMerge(opts options) error {
	res, err := fedcrawl.Merge(opts.Merge, "", nil, obs.Default())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged %d shard journals from %s (epoch %s, %d sites, %d countries)\n",
		len(res.Journals), opts.Merge, res.Corpus.Epoch, res.Corpus.TotalSites(), len(res.Corpus.Lists))
	if err := export(opts.Out, res.Corpus); err != nil {
		return err
	}
	if opts.Store != "" {
		if err := corpusstore.Save(opts.Store, res.Corpus, &corpusstore.Options{Workers: opts.Workers}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored corpus (%d sites, %d countries) to %s\n",
			res.Corpus.TotalSites(), len(res.Corpus.Lists), opts.Store)
	}
	report.CoverageTable(os.Stderr, "merged coverage", res.Corpus)
	report.DisagreementTable(os.Stderr, "cross-vantage disagreement", &res.Disagreement)
	if opts.Summary {
		printSummary(res.Corpus.ScoreSet(), res.Corpus.CoverageByCountry)
	}
	if opts.wantGraph() {
		if err := blastRadius(depgraph.Build(res.Corpus, &depgraph.Options{Workers: opts.Workers}), opts); err != nil {
			return err
		}
	}
	return nil
}

// openJournal creates or resumes the crawl's journal at
// <checkpoint dir>/<epoch>.journal. A fresh run refuses to truncate an
// existing journal — the operator either resumes it or removes it.
func openJournal(opts options, w *worldgen.World) (*checkpoint.Journal, error) {
	if err := os.MkdirAll(opts.Checkpoint, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.Checkpoint, w.Config.Epoch+".journal")
	if opts.Resume {
		j, err := checkpoint.Resume(path, w.Config.Epoch, w.Config.Countries, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "resuming from %s: %d sites journaled, re-probing the rest\n",
			path, j.ReplayedSites())
		return j, nil
	}
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("journal %s already exists; pass -resume to continue it or remove it first", path)
	}
	j, err := checkpoint.Create(path, w.Config.Epoch, w.Config.Countries, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "checkpointing to %s\n", path)
	return j, nil
}

func export(dir string, corpus *dataset.Corpus) error {
	outDir := filepath.Join(dir, corpus.Epoch)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, cc := range corpus.Countries() {
		// Atomic replace: a crash (or a concurrent reader) never observes a
		// half-written dataset, and a failed export leaves any previous
		// file intact.
		path := filepath.Join(outDir, cc+".csv")
		list := corpus.Get(cc)
		if err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
			return dataset.WriteCSV(w, list)
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d country files to %s\n", len(corpus.Lists), outDir)
	return nil
}

func exportZones(dir string, w *worldgen.World) error {
	zones, err := liveworld.Zones(w)
	if err != nil {
		return err
	}
	zoneDir := filepath.Join(dir, "zones")
	if err := os.MkdirAll(zoneDir, 0o755); err != nil {
		return err
	}
	for origin, zone := range zones {
		zone := zone
		err := checkpoint.WriteFileAtomic(filepath.Join(zoneDir, origin+".zone"),
			func(w io.Writer) error { return dnsserver.WriteZone(w, zone) })
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d zone files to %s\n", len(zones), zoneDir)
	return nil
}

// runFromStore exports and scores an existing on-disk corpus store without
// building a world: CSVs are written one country at a time (only one list
// is ever resident) and the summary comes from the store's streamed
// ScoreSet.
func runFromStore(opts options) error {
	st, err := corpusstore.Open(opts.FromStore, &corpusstore.Options{Workers: opts.Workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "opened store %s (epoch %s, %d countries, %d sites)\n",
		opts.FromStore, st.Epoch(), len(st.Countries()), st.TotalSites())

	exportSpan := obs.StartSpan(obs.Default().Timing("stage.export.ms"))
	outDir := filepath.Join(opts.Out, st.Epoch())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, cc := range st.Countries() {
		list, err := st.ReadList(cc)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, cc+".csv")
		if err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
			return dataset.WriteCSV(w, list)
		}); err != nil {
			return err
		}
	}
	exportSpan.End()
	fmt.Fprintf(os.Stderr, "wrote %d country files to %s\n", len(st.Countries()), outDir)

	// Summary and graph both come from symbol-ID scans — the corpus is never
	// materialized — and when both are asked for, from one scan.
	var (
		ss    *dataset.ScoreSet
		g     *depgraph.Graph
		gopts = &depgraph.Options{Workers: opts.Workers}
	)
	switch {
	case opts.Summary && opts.wantGraph():
		ss, g, err = depgraph.ScanStore(st, gopts)
	case opts.Summary:
		ss, err = st.Score()
	case opts.wantGraph():
		g, err = depgraph.FromStore(st, gopts)
	}
	if err != nil {
		return err
	}
	if ss != nil {
		printSummary(ss, st.Coverage())
	}
	if g != nil {
		return blastRadius(g, opts)
	}
	return nil
}

// wantGraph reports whether any flag needs the provider dependency graph.
func (opts options) wantGraph() bool { return opts.SPOF || opts.WhatIf != "" }

// blastRadius renders the dependency-graph surfaces behind -spof and
// -what-if. An unknown -what-if provider is a usage error, not an empty
// table.
func blastRadius(g *depgraph.Graph, opts options) error {
	if opts.SPOF {
		report.SPOFTable(os.Stdout, "single points of failure (top 10)", g.TopSPOFs(10))
	}
	if opts.WhatIf != "" {
		imp, err := g.Simulate(opts.WhatIf)
		if err != nil {
			return err
		}
		report.ImpactTable(os.Stdout, fmt.Sprintf("what-if: %s fails", opts.WhatIf), imp)
	}
	return nil
}

func printSummary(ss *dataset.ScoreSet, coverage map[string]*dataset.Coverage) {
	fmt.Printf("%-4s", "CC")
	for _, layer := range countries.Layers {
		fmt.Printf(" %9s", layer)
	}
	fmt.Println()
	for _, cc := range ss.Countries() {
		fmt.Printf("%-4s", cc)
		for _, layer := range countries.Layers {
			fmt.Printf(" %9.4f", ss.DistributionOf(cc, layer).Score())
		}
		// Scores over an under-covered crawl reflect measurement loss;
		// say so next to the numbers.
		if cov := coverage[cc]; cov != nil && cov.Degraded {
			fmt.Printf("  DEGRADED (coverage %.1f%%)", cov.Fraction()*100)
		}
		fmt.Println()
	}
}

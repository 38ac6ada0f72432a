// Command webdep generates a calibrated synthetic world, measures it
// through the enrichment pipeline, and exports per-country datasets in the
// release CSV format. The first argument picks the command; each command
// owns its flags (webdep <command> -h lists them), and flags come before
// any positional argument.
//
// Usage:
//
//	webdep export -out data/ -sites 10000                 # full 150-country world
//	webdep export -countries TH,IR,US -sites 2000 -out d/ # subset
//	webdep export -epoch2 -out data/                      # also emit the 2025-05 epoch
//	webdep export -out data/ -store corpus.store          # also persist the binary corpus store
//	webdep export -out data/ -spof -what-if Cloudflare    # rank SPOFs, simulate one provider failing
//	webdep crawl -countries TH -sites 50                  # crawl over real sockets
//	webdep merge -out data/ fed/                          # reassemble a corpus from federated shard journals
//	webdep score -out data/ corpus.store                  # export and score a stored corpus
//	webdep serve -addr :8080 -countries US,DE -sites 500  # score-query daemon over an in-memory world
//	webdep serve -store corpus.store                      # daemon over a store or generation root; SIGHUP/POST /reload hot-swaps
//	webdep vantage -addr :7801 -key SECRET -countries TH  # remote worker for crawl -transport
package main

import (
	"context"
	"errors"
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

func main() {
	// The one context of the process: serve and vantage wait on it, a crawl
	// is cancelled by it, so ^C unwinds through every deferred Close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "webdep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cmd, err := parse(args, stderr)
	if err != nil {
		return err
	}
	return cmd(ctx, stdout, stderr)
}

// out is where one invocation prints: tables on stdout, progress on stderr.
type out struct{ stdout, stderr io.Writer }

func (o out) logf(format string, args ...any) { fmt.Fprintf(o.stderr, format, args...) }

// body is a command with its flags parsed and checked.
type body func(ctx context.Context, o out) error

// commands is the whole CLI. bind registers the command's own flags on fs
// and returns its body plus, when the command has cross-flag rules, the
// check to apply once fs is parsed. A flag that means nothing to a command
// is not registered on it, so a contradictory combination is the flag
// package's "provided but not defined", not a rule here.
var commands = []struct {
	name     string
	args     []string // positional arguments; the body reads them as fs.Arg(i)
	synopsis string
	bind     func(fs *flag.FlagSet, c *common) (run body, check func() error)
}{
	{"export", nil, "measure a generated world through the fast pipeline and write the release CSVs", bindExport},
	{"crawl", nil, "measure it over real DNS and TLS sockets instead (keep worlds small)", bindCrawl},
	{"merge", []string{"DIR"}, "reassemble a corpus from a directory of federated shard journals", bindMerge},
	{"score", []string{"STORE"}, "export and score an existing corpus store", bindScore},
	{"serve", nil, "answer score queries over HTTP from a store or an in-memory world", bindServe},
	{"vantage", nil, "answer a crawl coordinator's signed shard assignments", bindVantage},
}

// parse turns a command line into something runnable without running it;
// usage text (a command's flags, or the command list) goes to usage.
func parse(args []string, usage io.Writer) (func(ctx context.Context, stdout, stderr io.Writer) error, error) {
	name := ""
	if len(args) > 0 {
		name = args[0]
	}
	for _, cmd := range commands {
		if cmd.name != name {
			continue
		}
		fs := flag.NewFlagSet("webdep "+name, flag.ContinueOnError)
		fs.SetOutput(usage)
		c := bindCommon(fs)
		run, check := cmd.bind(fs, c)
		if err := fs.Parse(args[1:]); err != nil {
			return nil, err
		}
		// The flag package stops at the first non-flag, so flags go first.
		if fs.NArg() != len(cmd.args) {
			return nil, fmt.Errorf("usage: webdep %s [flags] %s — got %d positional arguments %q (flags go before them)",
				name, strings.Join(cmd.args, " "), fs.NArg(), fs.Args())
		}
		if check != nil {
			if err := check(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		return func(ctx context.Context, stdout, stderr io.Writer) error {
			return c.run(ctx, out{stdout, stderr}, run)
		}, nil
	}
	fmt.Fprintln(usage, "usage: webdep <command> [flags]   (webdep <command> -h lists a command's flags)")
	for _, cmd := range commands {
		fmt.Fprintf(usage, "  %-14s %s\n", strings.Join(append([]string{cmd.name}, cmd.args...), " "), cmd.synopsis)
	}
	if name == "" {
		return nil, errors.New("no command given")
	}
	return nil, fmt.Errorf("unknown command %q", name)
}

// common holds the flags every command takes.
type common struct {
	Workers   int
	Stats     bool
	DebugAddr string
}

func bindCommon(fs *flag.FlagSet) *common {
	c := &common{}
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "measurement concurrency: countries in export, crawl jobs in crawl (output is identical for any value)")
	fs.BoolVar(&c.Stats, "stats", false, "print the observability registry (stage timings, probe latencies, retry/breaker counters) after the run")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060) for the duration of the run")
	return c
}

// run wraps a command's body in what the common flags ask for.
func (c *common) run(ctx context.Context, o out, cmd body) error {
	if c.DebugAddr != "" {
		srv, err := obs.ServeDebug(c.DebugAddr, obs.Default())
		if err != nil {
			return err
		}
		defer srv.Close()
		o.logf("debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr)
	}
	if c.Stats {
		defer func() { report.StatsTable(o.stderr, "observability", obs.Default().Snapshot()) }()
	}
	return cmd(ctx, o)
}

// world holds the flags that describe a generated world; every command that
// builds one (and a vantage must build the coordinator's) binds the same four.
type world struct {
	Seed      int64
	Sites     int
	Countries string
	GeoErr    bool
}

func bindWorld(fs *flag.FlagSet) *world {
	w := &world{}
	fs.Int64Var(&w.Seed, "seed", 1, "world seed")
	fs.IntVar(&w.Sites, "sites", 10000, "sites per country")
	fs.StringVar(&w.Countries, "countries", "", "comma-separated country subset (default: all 150)")
	fs.BoolVar(&w.GeoErr, "geoerr", false, "enable the 10.6% geolocation error model")
	return w
}

func buildWorld(o out, f *world) (*worldgen.World, error) {
	cfg := worldgen.Config{Seed: f.Seed, SitesPerCountry: f.Sites, Countries: splitList(f.Countries)}
	if f.GeoErr {
		cfg.GeoErrorRate = 0.106
	}
	o.logf("building world (seed=%d, sites=%d)...\n", f.Seed, f.Sites)
	defer obs.StartSpan(obs.Default().Timing("stage.build.ms")).End()
	return worldgen.Build(cfg)
}

func fastPipeline(w *worldgen.World, workers int) *pipeline.Pipeline {
	p := pipeline.FromWorld(w)
	p.Workers = workers
	return p
}

// reporting holds the flags that say what to write about a corpus.
type reporting struct {
	Out     string
	Summary bool
	SPOF    bool
	WhatIf  string
}

func bindReport(fs *flag.FlagSet) *reporting {
	r := &reporting{}
	fs.StringVar(&r.Out, "out", "webdep-data", "output directory")
	fs.BoolVar(&r.Summary, "summary", true, "print per-layer score summaries")
	fs.BoolVar(&r.SPOF, "spof", false, "rank the corpus's top single points of failure by transitive blast radius")
	fs.StringVar(&r.WhatIf, "what-if", "", "simulate this provider failing and report per-country hosting/DNS/CA losses")
	return r
}

// wantGraph reports whether any flag needs the provider dependency graph.
func (r *reporting) wantGraph() bool { return r.SPOF || r.WhatIf != "" }

const storeUsage = "also persist the measured corpus as a binary sharded store at this directory"

func bindMinCoverage(fs *flag.FlagSet, p *float64) {
	fs.Float64Var(p, "min-coverage", 1, "per-country coverage threshold; countries below it are flagged degraded (negative disables the check)")
}

func bindExport(fs *flag.FlagSet, c *common) (body, func() error) {
	w, r := bindWorld(fs), bindReport(fs)
	store := fs.String("store", "", storeUsage)
	epoch2 := fs.Bool("epoch2", false, "also generate and export the 2025-05 epoch")
	zones := fs.Bool("zones", false, "also dump the world's DNS zones as master files")
	return func(ctx context.Context, o out) error {
		world, err := buildWorld(o, w)
		if err != nil {
			return err
		}
		p := fastPipeline(world, c.Workers)
		corpus, err := p.MeasureWorld(world)
		if err != nil {
			return err
		}
		if err := emit(o, corpus, r, *store, c.Workers, ""); err != nil {
			return err
		}
		if *zones {
			if err := exportZones(o, r.Out, world); err != nil {
				return err
			}
		}
		if !*epoch2 {
			return nil
		}
		o.logf("generating 2025-05 epoch...\n")
		next, err := worldgen.BuildNextEpoch(world, "2025-05")
		if err != nil {
			return err
		}
		if corpus, err = p.MeasureWorld(next); err != nil {
			return err
		}
		return emit(o, corpus, &reporting{Out: r.Out}, "", c.Workers, "")
	}, nil
}

// crawl holds the flags only a live crawl understands.
type crawl struct {
	// FailFast and MinCoverage are the coverage threshold; see
	// pipeline.FlagDegraded.
	FailFast    bool
	MinCoverage float64
	// Checkpoint, when non-empty, journals every completed probe to
	// <dir>/<epoch>.journal so an interrupted crawl can be resumed; Resume
	// reopens that journal and re-probes only missing or lost sites. See
	// internal/checkpoint.
	Checkpoint string
	Resume     bool
	// Federate, when > 0, runs the crawl as a federation of N shard workers
	// coordinated through per-worker journals under the Checkpoint
	// directory. See internal/fedcrawl.
	Federate int
	// Transport is one vantage base URL per Federate worker: shards are
	// dispatched over HTTP to `webdep vantage` processes instead of crawled
	// in-process. VantageKeys holds the HMAC keys authenticating both
	// directions: one shared key, or one per vantage. See
	// internal/fedtransport.
	Transport   []string
	VantageKeys []string
}

func bindCrawl(fs *flag.FlagSet, c *common) (body, func() error) {
	w, r := bindWorld(fs), bindReport(fs)
	store := fs.String("store", "", storeUsage)
	f := &crawl{}
	bindMinCoverage(fs, &f.MinCoverage)
	fs.BoolVar(&f.FailFast, "fail-fast", false, "abort at the first country whose coverage falls below -min-coverage instead of flagging it degraded")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "journal completed probes to <dir>/<epoch>.journal for crash-safe resume")
	fs.BoolVar(&f.Resume, "resume", false, "reopen the -checkpoint journal and re-probe only missing or lost sites")
	fs.IntVar(&f.Federate, "federate", 0, "shard the crawl across N federated workers journaling under the -checkpoint directory")
	transport := fs.String("transport", "", "comma-separated vantage base URLs, one per -federate worker: dispatch shards over HTTP instead of crawling in-process")
	keys := fs.String("vantage-key", "", "comma-separated HMAC keys authenticating the federation transport: one shared key, or one per vantage")
	run := func(ctx context.Context, o out) error {
		world, err := buildWorld(o, w)
		if err != nil {
			return err
		}
		measure := measureLive
		if f.Federate > 0 {
			measure = measureFederated
		}
		corpus, err := measure(ctx, o, world, f, c.Workers)
		if err != nil {
			return err
		}
		if err := flagDegraded(corpus, f.MinCoverage, f.FailFast); err != nil {
			return err
		}
		return emit(o, corpus, r, *store, c.Workers, "crawl coverage")
	}
	return run, func() error {
		f.Transport, f.VantageKeys = splitRaw(*transport), splitRaw(*keys)
		return f.check()
	}
}

// check holds crawl's cross-flag rules; each names the flags involved so
// the error reads like the fix.
func (f *crawl) check() error {
	switch {
	case f.Resume && f.Checkpoint == "":
		return fmt.Errorf("-resume requires -checkpoint")
	case f.Federate < 0:
		return fmt.Errorf("-federate needs a positive worker count, got %d", f.Federate)
	case f.Federate > 0 && f.Checkpoint == "":
		return fmt.Errorf("-federate journals its shard workers under -checkpoint; pass a directory")
	case f.Federate > 0 && f.Resume:
		return fmt.Errorf("-resume does not apply to -federate: a federated run always resumes from the journals already in its -checkpoint directory")
	case f.Federate > 0 && f.FailFast:
		return fmt.Errorf("-fail-fast does not apply to -federate: a federated run re-dispatches until no probe is lost or fails outright, so no country can fall below -min-coverage")
	case len(f.Transport) == 0 && len(f.VantageKeys) > 0:
		return fmt.Errorf("-vantage-key authenticates the federation transport; it requires -transport")
	case len(f.Transport) == 0:
		return nil
	case f.Federate == 0:
		return fmt.Errorf("-transport dispatches federated shards over HTTP; it requires -federate")
	case len(f.Transport) != f.Federate:
		return fmt.Errorf("-transport needs one vantage URL per -federate worker: got %d URLs for %d workers", len(f.Transport), f.Federate)
	case len(f.VantageKeys) != 1 && len(f.VantageKeys) != f.Federate:
		return fmt.Errorf("-transport requires -vantage-key: one shared key, or one per vantage (%d), got %d", f.Federate, len(f.VantageKeys))
	}
	return nil
}

// bindMerge is the offline half of crawl -federate, for when the crawl ran
// elsewhere and only the journals travelled. The campaign identity (epoch,
// country set) is adopted from the journals themselves.
func bindMerge(fs *flag.FlagSet, c *common) (body, func() error) {
	r := bindReport(fs)
	store := fs.String("store", "", storeUsage)
	var minCoverage float64
	bindMinCoverage(fs, &minCoverage)
	return func(ctx context.Context, o out) error {
		dir := fs.Arg(0)
		res, err := fedcrawl.Merge(dir, "", nil, obs.Default())
		if err != nil {
			return err
		}
		o.logf("merged %d shard journals from %s (epoch %s, %d sites, %d countries)\n",
			len(res.Journals), dir, res.Corpus.Epoch, res.Corpus.TotalSites(), len(res.Corpus.Lists))
		report.DisagreementTable(o.stderr, "cross-vantage disagreement", &res.Disagreement)
		// Merge accepts lost fields (its winner is the replica with the
		// fewest), so the threshold the crawl would have applied is
		// applied here: an incomplete campaign's scores say so.
		if err := flagDegraded(res.Corpus, minCoverage, false); err != nil {
			return err
		}
		return emit(o, res.Corpus, r, *store, c.Workers, "merged coverage")
	}, nil
}

// bindScore exports and scores an existing on-disk corpus store without
// building a world: CSVs are written one country at a time (only one list
// is ever resident), and summary and graph come from symbol-ID scans — the
// corpus is never materialized — and when both are asked for, from one scan.
func bindScore(fs *flag.FlagSet, c *common) (body, func() error) {
	r := bindReport(fs)
	return func(ctx context.Context, o out) error {
		st, err := corpusstore.Open(fs.Arg(0), &corpusstore.Options{Workers: c.Workers})
		if err != nil {
			return err
		}
		o.logf("opened store %s (epoch %s, %d countries, %d sites)\n",
			fs.Arg(0), st.Epoch(), len(st.Countries()), st.TotalSites())
		if err := writeCSVs(o, r.Out, st.Epoch(), st.Countries(), st.ReadList); err != nil {
			return err
		}
		var (
			ss    *dataset.ScoreSet
			g     *depgraph.Graph
			gopts = &depgraph.Options{Workers: c.Workers}
		)
		switch {
		case r.Summary && r.wantGraph():
			ss, g, err = depgraph.ScanStore(st, gopts)
		case r.Summary:
			ss, err = st.Score()
		case r.wantGraph():
			g, err = depgraph.FromStore(st, gopts)
		}
		if err != nil {
			return err
		}
		if ss != nil {
			printSummary(o.stdout, ss, st.Coverage())
		}
		if g != nil {
			return blastRadius(o, g, r)
		}
		return nil
	}, nil
}

// bindServe runs the score-query daemon (internal/webdepd) until the
// context ends. The corpus source is -store — a bare store or a root of
// store generations, the same thing to the daemon: a bare store is its own
// single generation — or, without it, a generated world measured in memory.
// SIGHUP triggers the same hot swap POST /reload does.
func bindServe(fs *flag.FlagSet, c *common) (body, func() error) {
	w := bindWorld(fs)
	addr := fs.String("addr", "localhost:8080", "listen address")
	store := fs.String("store", "", "serve this corpus store, or the newest complete generation under this root, hot-swapping on SIGHUP or POST /reload (default: measure a generated world in memory)")
	// A store is served as it is: a world flag beside -store would be dropped.
	check := func() error {
		if *store == "" {
			return nil
		}
		worldFlags := flag.NewFlagSet("", flag.ContinueOnError)
		bindWorld(worldFlags)
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if worldFlags.Lookup(f.Name) != nil {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-store serves a measured corpus, not a generated world: %s would be ignored", strings.Join(ignored, " "))
		}
		return nil
	}
	return func(ctx context.Context, o out) error {
		cfg := webdepd.Config{Workers: c.Workers, Obs: obs.Default(), StoreRoot: *store}
		if *store == "" {
			world, err := buildWorld(o, w)
			if err != nil {
				return err
			}
			if cfg.Corpus, err = fastPipeline(world, c.Workers).MeasureWorld(world); err != nil {
				return err
			}
		}
		d, err := webdepd.Start(*addr, cfg)
		if err != nil {
			return err
		}
		defer d.Close()
		label, _ := d.Generation()
		o.logf("webdepd answering score queries on http://%s/api/ (generation %s)\n", d.Addr, label)

		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				o.logf("webdepd shutting down\n")
				return nil
			case <-hup:
				if label, err := d.Reload(); err != nil {
					o.logf("webdepd: SIGHUP reload failed: %v\n", err)
				} else {
					o.logf("webdepd: swapped to generation %s\n", label)
				}
			}
		}
	}, check
}

// bindVantage runs the process as a remote federation vantage worker: it
// builds the same world the coordinator will assign shards from (the seed
// is the shared contract), serves it over DNS and TLS locally, and answers
// signed /crawl assignments with signed journal artifacts until the context
// ends.
func bindVantage(fs *flag.FlagSet, c *common) (body, func() error) {
	w := bindWorld(fs)
	addr := fs.String("addr", "localhost:7800", "listen address")
	key := fs.String("key", "", "HMAC key this vantage signs artifacts with; the coordinator passes it as -vantage-key")
	var keys []string
	run := func(ctx context.Context, o out) error {
		world, err := buildWorld(o, w)
		if err != nil {
			return err
		}
		o.logf("serving world over DNS and TLS...\n")
		ep, err := liveworld.Serve(world)
		if err != nil {
			return err
		}
		defer ep.Close()
		factory := liveFactory(world, ep, c.Workers)
		v, err := fedtransport.ServeVantage(*addr, fedtransport.VantageConfig{
			Key:     []byte(keys[0]),
			NewLive: func() *pipeline.Live { return factory("") },
			Obs:     obs.Default(),
		})
		if err != nil {
			return err
		}
		defer v.Close()
		o.logf("vantage worker answering signed shard assignments on %s\n", v.Addr)
		<-ctx.Done()
		o.logf("vantage worker shutting down\n")
		return nil
	}
	return run, func() error {
		if keys = splitRaw(*key); len(keys) != 1 {
			return fmt.Errorf("exactly one -key is required to sign artifacts with, got %d", len(keys))
		}
		return nil
	}
}

// splitList splits a comma-separated country list, uppercasing the codes.
func splitList(s string) []string { return splitRaw(strings.ToUpper(s)) }

// splitRaw splits a comma-separated list preserving case — URLs and HMAC
// keys, unlike country codes, are case-sensitive.
func splitRaw(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func measureLive(ctx context.Context, o out, w *worldgen.World, f *crawl, workers int) (*dataset.Corpus, error) {
	o.logf("serving world over DNS and TLS...\n")
	ep, err := liveworld.Serve(w)
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	liveP := liveFactory(w, ep, workers)("")
	liveP.FailFast, liveP.MinCoverage = f.FailFast, f.MinCoverage
	if f.Checkpoint != "" {
		j, err := openJournal(o, f, w)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		liveP.Checkpoint = j
	}
	o.logf("crawling %d countries over real sockets (%d workers)...\n", len(w.Config.Countries), workers)
	// CrawlCorpus serializes progress callbacks, so these per-country lines
	// never interleave even though countries finish concurrently.
	corpus, err := liveP.CrawlCorpus(ctx, w.Config.Epoch, w.Config.Countries,
		func(cc string) []string { return w.Truth.Get(cc).Domains() },
		func(cc string, sites int) { o.logf("crawled %s (%d sites)\n", cc, sites) })
	if err != nil {
		return nil, err
	}
	if j := liveP.Checkpoint; j != nil {
		if jerr := j.Err(); jerr != nil {
			// A dead checkpoint disk never fails the crawl, but the operator
			// must know this run is not restartable.
			o.logf("WARNING: checkpoint journaling disarmed mid-crawl (%v); this run cannot be resumed\n", jerr)
		} else {
			st := j.Stats()
			o.logf("checkpoint: %d sites journaled, %d replayed from %s\n", st.RecordsWritten, st.SitesSkipped, j.Path())
		}
	}
	return corpus, nil
}

// liveFactory builds the per-worker live crawler used by the unsharded
// crawl, the in-process federation and the vantage worker: same pipeline,
// same resilience policy, so a remote crawl measures exactly what a local
// one would.
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
// With -transport, the workers are remote `webdep vantage` processes: each
// shard goes out as a signed HTTP assignment and comes back as a signed
// journal artifact that is verified before it is admitted into the
// directory. The durable-state contract is unchanged — the coordinator
// still believes only what the journals on disk say.
func measureFederated(ctx context.Context, o out, w *worldgen.World, f *crawl, workers int) (*dataset.Corpus, error) {
	if err := os.MkdirAll(f.Checkpoint, 0o755); err != nil {
		return nil, err
	}
	cfg := fedcrawl.Config{
		Epoch:     w.Config.Epoch,
		Countries: w.Config.Countries,
		DomainsOf: func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:   f.Federate,
		Dir:       f.Checkpoint,
	}
	var client *fedtransport.Client
	if len(f.Transport) > 0 {
		// Remote vantages serve their own copy of the world (same seed);
		// the coordinator only assigns shards and verifies what comes back.
		var err error
		client, err = newTransportClient(w, f)
		if err != nil {
			return nil, err
		}
		defer client.Close()
		cfg.Dispatch = client.Dispatcher()
	} else {
		o.logf("serving world over DNS and TLS...\n")
		ep, err := liveworld.Serve(w)
		if err != nil {
			return nil, err
		}
		defer ep.Close()
		cfg.Dispatch = fedcrawl.Local(cfg, liveFactory(w, ep, workers))
	}
	if f.Federate >= 2 {
		// With at least two vantages available, probe every shard from a
		// second one as well: the overlap is what feeds the cross-vantage
		// disagreement table below.
		cfg.Replicate = 1
	}
	coord, err := fedcrawl.New(cfg)
	if err != nil {
		return nil, err
	}
	o.logf("federated crawl: %d workers journaling under %s...\n", f.Federate, f.Checkpoint)
	res, err := coord.Run(ctx)
	if err != nil {
		return nil, err
	}
	o.logf("federated crawl: %d waves, %d dispatches (%d re-dispatched, %d replicas), %d journals merged\n",
		res.Stats.Waves, res.Stats.Dispatches, res.Stats.Redispatches, res.Stats.Replicas, len(res.Journals))
	if client != nil {
		st := client.Stats()
		refused := st.Refusals.Forged + st.Refusals.Truncated + st.Refusals.Replayed +
			st.Refusals.Foreign + st.Refusals.Corrupt
		o.logf("transport: %d dispatches, %d artifacts admitted, %d refused, %d detached arrivals, %d worker deaths\n",
			st.Dispatches, st.Admitted, refused, st.DetachedArrivals, st.WorkerDeaths)
	}
	report.DisagreementTable(o.stderr, "cross-vantage disagreement", &res.Disagreement)
	return res.Corpus, nil
}

// newTransportClient assembles the fedtransport client for -transport:
// fedcrawl names its workers w0..wN-1, so URL i and key i (or the single
// shared key) bind to worker i.
func newTransportClient(w *worldgen.World, f *crawl) (*fedtransport.Client, error) {
	workers := make([]string, f.Federate)
	urls := make(map[string]string, f.Federate)
	keys := make(map[string][]byte, f.Federate)
	for i := range workers {
		name := fmt.Sprintf("w%d", i)
		workers[i] = name
		urls[name] = f.Transport[i]
		key := f.VantageKeys[0]
		if len(f.VantageKeys) > 1 {
			key = f.VantageKeys[i]
		}
		keys[name] = []byte(key)
	}
	return fedtransport.NewClient(fedtransport.ClientConfig{
		Workers:   workers,
		URL:       urls,
		Key:       keys,
		Dir:       f.Checkpoint,
		Epoch:     w.Config.Epoch,
		Countries: w.Config.Countries,
		Obs:       obs.Default(),
	})
}

// openJournal creates or resumes the crawl's journal at
// <checkpoint dir>/<epoch>.journal. A fresh run refuses to truncate an
// existing journal — the operator either resumes it or removes it.
func openJournal(o out, f *crawl, w *worldgen.World) (*checkpoint.Journal, error) {
	if err := os.MkdirAll(f.Checkpoint, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(f.Checkpoint, w.Config.Epoch+".journal")
	if f.Resume {
		j, err := checkpoint.Resume(path, w.Config.Epoch, w.Config.Countries, nil)
		if err != nil {
			return nil, err
		}
		o.logf("resuming from %s: %d sites journaled, re-probing the rest\n", path, j.ReplayedSites())
		return j, nil
	}
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("journal %s already exists; pass -resume to continue it or remove it first", path)
	}
	j, err := checkpoint.Create(path, w.Config.Epoch, w.Config.Countries, nil)
	if err != nil {
		return nil, err
	}
	o.logf("checkpointing to %s\n", path)
	return j, nil
}

// flagDegraded applies the coverage threshold to a corpus assembled from
// journals — a federated crawl's, or merge's — exactly as CrawlCorpus
// applies it to one it crawled.
func flagDegraded(corpus *dataset.Corpus, minCoverage float64, failFast bool) error {
	for _, cc := range corpus.Countries() {
		if err := pipeline.FlagDegraded(corpus.CoverageOf(cc), minCoverage, failFast); err != nil {
			return err
		}
	}
	return nil
}

// emit is the tail every command holding a corpus in memory shares: the
// CSVs, the optional store, the coverage table of a crawled corpus (titled
// coverage, when non-empty), the summary and the dependency-graph surfaces.
func emit(o out, corpus *dataset.Corpus, r *reporting, store string, workers int, coverage string) error {
	err := writeCSVs(o, r.Out, corpus.Epoch, corpus.Countries(),
		func(cc string) (*dataset.CountryList, error) { return corpus.Get(cc), nil })
	if err != nil {
		return err
	}
	if store != "" {
		if err := corpusstore.Save(store, corpus, &corpusstore.Options{Workers: workers}); err != nil {
			return err
		}
		o.logf("stored corpus (%d sites, %d countries) to %s\n", corpus.TotalSites(), len(corpus.Lists), store)
	}
	if coverage != "" {
		report.CoverageTable(o.stderr, coverage, corpus)
	}
	if r.Summary {
		printSummary(o.stdout, corpus.ScoreSet(), corpus.CoverageByCountry)
	}
	if r.wantGraph() {
		return blastRadius(o, depgraph.Build(corpus, &depgraph.Options{Workers: workers}), r)
	}
	return nil
}

// writeCSVs writes <dir>/<epoch>/<cc>.csv for every country list yields.
func writeCSVs(o out, dir, epoch string, ccs []string, list func(cc string) (*dataset.CountryList, error)) error {
	defer obs.StartSpan(obs.Default().Timing("stage.export.ms")).End()
	outDir := filepath.Join(dir, epoch)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, cc := range ccs {
		l, err := list(cc)
		if err != nil {
			return err
		}
		// Atomic replace: a crash (or a concurrent reader) never observes a
		// half-written dataset, and a failed export leaves any previous
		// file intact.
		err = checkpoint.WriteFileAtomic(filepath.Join(outDir, cc+".csv"),
			func(w io.Writer) error { return dataset.WriteCSV(w, l) })
		if err != nil {
			return err
		}
	}
	o.logf("wrote %d country files to %s\n", len(ccs), outDir)
	return nil
}

func exportZones(o out, dir string, w *worldgen.World) error {
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
	o.logf("wrote %d zone files to %s\n", len(zones), zoneDir)
	return nil
}

// blastRadius renders the dependency-graph surfaces behind -spof and
// -what-if. An unknown -what-if provider is a usage error, not an empty
// table.
func blastRadius(o out, g *depgraph.Graph, r *reporting) error {
	if r.SPOF {
		report.SPOFTable(o.stdout, "single points of failure (top 10)", g.TopSPOFs(10))
	}
	if r.WhatIf != "" {
		imp, err := g.Simulate(r.WhatIf)
		if err != nil {
			return err
		}
		report.ImpactTable(o.stdout, fmt.Sprintf("what-if: %s fails", r.WhatIf), imp)
	}
	return nil
}

func printSummary(w io.Writer, ss *dataset.ScoreSet, coverage map[string]*dataset.Coverage) {
	fmt.Fprintf(w, "%-4s", "CC")
	for _, layer := range countries.Layers {
		fmt.Fprintf(w, " %9s", layer)
	}
	fmt.Fprintln(w)
	for _, cc := range ss.Countries() {
		fmt.Fprintf(w, "%-4s", cc)
		for _, layer := range countries.Layers {
			fmt.Fprintf(w, " %9.4f", ss.DistributionOf(cc, layer).Score())
		}
		// Scores over an under-covered crawl reflect measurement loss;
		// say so next to the numbers.
		if cov := coverage[cc]; cov != nil && cov.Degraded {
			fmt.Fprintf(w, "  DEGRADED (coverage %.1f%%)", cov.Fraction()*100)
		}
		fmt.Fprintln(w)
	}
}

// Command bench is the repository's benchmark: four workloads over the
// epoch arc and the query daemon, end-to-end metrics from an untraced run,
// per-layer metrics and spans from a traced one. README.md in this
// directory documents the commands, the worlds, and how the metrics relate;
// BENCHMARK.json at the repository root names this program to the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/webdep/webdep/internal/obs"
)

// outcome is one workload's run: the values for the result line, and what
// the table around them needs.
type outcome struct {
	workload  string
	attempted int
	failed    int
	samples   int
	values    map[string]float64
	details   []detail
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    int
	repeat   int
	out      string
	workdir  string
	fault    fault // set only by the tests
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of epoch-batch, crawl-federated, serve-hot, serve-churn")
	flag.Int64Var(&o.seed, "seed", 11, "seed for both generated worlds, the key permutation and the key draws")
	seconds := flag.Int("seconds", 10, "measured window per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced form: per-layer metrics, spans, self times, tracing overhead")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many full sets and report whether they agree within the bounds")
	flag.StringVar(&o.out, "out", "", "with -trace 1, write the spans here as JSON lines when the run ends")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores and journals; created, and emptied on exit")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, and there are no positional arguments")
		os.Exit(2)
	}
	o.window = time.Duration(*seconds) * time.Second
	os.Exit(run(o, benchSizes, os.Stdout, os.Stderr))
}

// run is main without the process: the tests call it with smokeSizes.
func run(o options, sz sizes, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || o.repeat < 1 {
		fmt.Fprintf(stderr, "bench: unknown workload %q, or a repeat count below 1\n", o.workload)
		return 2
	}
	e := &env{seed: o.seed, sz: sz, nproc: runtime.GOMAXPROCS(0), workdir: o.workdir}
	defer os.RemoveAll(e.workdir)
	window := o.window
	batchCountries := "all"
	if sz.batchCountries != nil {
		batchCountries = fmt.Sprint(len(sz.batchCountries))
	}
	fmt.Fprintf(stdout, "bench: seed %d, window %v, GOMAXPROCS %d, GOGC %s, fsync per journal record, per shard and per manifest; world-batch %s countries x %d sites, world-live %d x %d\n",
		o.seed, window, e.nproc, gogc(), batchCountries, sz.batchSites, len(sz.liveCountries), sz.liveSites)

	code := 0
	var sets [][]*outcome
	for set := 0; set < o.repeat; set++ {
		var outs []*outcome
		var err error
		if o.trace != 0 {
			outs, err = runTraced(e, names, window, o.out, stdout)
		} else {
			for _, name := range names {
				var out *outcome
				if out, err = runWorkload(e, name, window, o.fault); err != nil {
					break
				}
				outs = append(outs, out)
			}
		}
		if err != nil {
			// No result line: the driver reads that, and the exit code, as
			// a run that did not happen.
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defs := endToEnd
		if o.trace != 0 {
			defs = perLayer
		}
		for _, out := range outs {
			if err := report(stdout, out, defs); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if !out.correct() {
				code = 1
			}
		}
		sets = append(sets, outs)
	}
	if o.repeat > 1 && o.trace == 0 && !agreement(stdout, sets) {
		code = 1
	}
	return code
}

// gogc reports the collector setting in force.
func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "default"
}

// runWorkload runs one untraced workload.
func runWorkload(e *env, name string, window time.Duration, f fault) (*outcome, error) {
	switch name {
	case epochName:
		return runEpoch(e, window)
	case crawlName:
		return runCrawl(e, window, f)
	case hotName:
		return runHot(e, window, f)
	default:
		return runChurn(e, window, f)
	}
}

// report prints one workload's table and, last, its result line.
func report(w io.Writer, o *outcome, defs []metricDef) error {
	metrics, err := pack(defs, o.values)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== %s: operation = %s; %d samples\n", o.workload, operations[o.workload], o.samples)
	fmt.Fprintf(w, "%-36s %-6s %18s %9s %6s\n", "metric", "unit", "value", "samples", "bound")
	for _, d := range defs {
		if d.Bound > 0 {
			fmt.Fprintf(w, "%-36s %-6s %18.6f %9d %5g%%\n", d.Name, d.Unit, o.values[d.Name], o.samples, d.Bound*100)
		} else { // a per-layer metric: one probe, no bound
			fmt.Fprintf(w, "%-36s %-6s %18.6f\n", d.Name, d.Unit, o.values[d.Name])
		}
	}
	for _, d := range o.details {
		fmt.Fprintf(w, "%-36s %-6s %18.6f %9d %6s  %s\n", d.Name, d.Unit, d.Value, d.Samples, "-", d.Note)
	}
	fmt.Fprintf(w, "%-36s %-6s %18.6f %9d %6s  %d failed of %d attempted\n", "failed_share", "share",
		float64(o.failed)/float64(max(o.attempted, 1)), o.attempted, "0", o.failed, o.attempted)
	line, err := json.Marshal(result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// agreement prints, per (workload, end-to-end metric), each set's value,
// their spread as a share of their median, the bound, and whether the
// spread is inside it. It reports whether every pair agrees.
func agreement(w io.Writer, sets [][]*outcome) bool {
	all := true
	fmt.Fprintf(w, "\n== %d sets\n%-16s %-22s %8s %6s %-9s values\n", len(sets), "workload", "metric", "spread", "bound", "")
	for i := range sets[0] {
		for _, d := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[i].values[d.Name])
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			spread := (sorted[len(sorted)-1] - sorted[0]) / median(sorted)
			verdict := "agree"
			if spread > d.Bound {
				verdict, all = "disagree", false
			}
			fmt.Fprintf(w, "%-16s %-22s %7.2f%% %5g%% %-9s %v\n", sets[0][i].workload, d.Name, spread*100, d.Bound*100, verdict, vals)
		}
	}
	return all
}

// runTraced runs the traced form of the named workloads. Every traced run
// builds both worlds and runs every layer probe, so the per-layer metrics
// do not depend on the workload named; what the name selects is the window
// whose operations are run alternately untraced and traced, to give the
// spans their self times, the tracing overhead, and the process accounting.
func runTraced(e *env, names []string, window time.Duration, out string, stdout io.Writer) ([]*outcome, error) {
	tr := newTracer()
	batch, err := buildBatch(e, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	serve, err := buildServe(e, batch)
	if err != nil {
		return nil, err
	}
	defer serve.close()
	hotQueries, err := serve.queries(serve.hotTargets())
	if err != nil {
		return nil, err
	}
	hot := newHotSet(e.seed, hotQueries)
	dash, err := serve.queries(serve.dashboardTargets(e.seed))
	if err != nil {
		return nil, err
	}
	live, err := buildLive(e, fault{})
	if err != nil {
		return nil, err
	}
	defer live.close()
	runtime.GC()

	var outs []*outcome
	for _, name := range names {
		o := &outcome{workload: name, values: map[string]float64{}}
		before := readProc()
		spans := tr.count()
		var plain, traced []float64 // seconds per operation
		split := func(isTraced bool, secs float64) {
			if isTraced {
				traced = append(traced, secs)
			} else {
				plain = append(plain, secs)
			}
		}
		switch name {
		case epochName:
			iters, failed, err := batch.epochLoop(e, window, 1, 4, tr)
			if err != nil {
				return nil, err
			}
			for _, it := range iters {
				split(it.traced, (it.ingest + it.analyze).Seconds())
			}
			o.attempted, o.failed = len(iters), failed
		case crawlName:
			iters, failed, err := live.crawlLoop(window, 1, 4, tr)
			if err != nil {
				return nil, err
			}
			for _, it := range iters {
				split(it.traced, it.wall().Seconds())
			}
			o.attempted, o.failed = len(iters)*live.sites, failed
		case hotName:
			// Ten stretches of the window, every second one traced.
			for i := 0; i < 10; i++ {
				hw, err := hotRun(e, serve, hot, window/10, tr.alternate(i), fault{})
				if err != nil {
					return nil, err
				}
				split(i%2 == 1, hw.wall.Seconds()/float64(len(hw.lat)))
				o.attempted += len(hw.lat)
				o.failed += hw.failed
			}
		case churnName:
			cycles, err := churnLoop(serve, dash, window, 1, 4, tr, fault{})
			if err != nil {
				return nil, err
			}
			for _, c := range cycles {
				split(c.traced, (c.reload + c.dashboard).Seconds())
				o.failed += c.failed
			}
			o.attempted = len(cycles) * (len(dash) + 1)
			// The reloads left the cache cold and moved the swap count the
			// epoch body carries: render the hot keys again for the probes.
			if hot.qs, err = serve.queries(serve.hotTargets()); err != nil {
				return nil, err
			}
			hot = newHotSet(e.seed, hot.qs)
		}
		o.samples = len(traced)
		procMetrics(o.values, before, readProc())
		o.values["trace.overhead_share"] = median(traced)/median(plain) - 1
		o.values["trace.spans"] = float64(tr.count() - spans)
		outs = append(outs, o)
	}

	p := &prober{tr: tr, values: map[string]float64{}}
	if err := p.batchLayers(e, batch); err != nil {
		return nil, fmt.Errorf("batch layer probes: %w", err)
	}
	if err := p.serveLayers(e, serve, hot); err != nil {
		return nil, fmt.Errorf("serve layer probes: %w", err)
	}
	if err := p.liveLayers(e, live); err != nil {
		return nil, fmt.Errorf("live layer probes: %w", err)
	}
	for _, o := range outs {
		for k, v := range p.values {
			o.values[k] = v
		}
	}
	printSelfTimes(stdout, tr.selfTimes())
	printAccounting(stdout, p.values)
	if out != "" {
		if err := tr.writeTo(out); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", tr.count(), out)
	}
	return outs, nil
}

// printAccounting shows how the per-layer numbers close: the hit path's
// ladder of self times up to the loopback round trip, and how much of a
// streamed score its decode and tally explain.
func printAccounting(w io.Writer, v map[string]float64) {
	parse, handler, inmem, rtt := v["webdepd.parse_ns"], v["webdepd.handler_ns"], v["nethttp.inmem_ns"], v["loopback.rtt_ns"]
	fmt.Fprintf(w, "\nhit path, ns per request (self times sum to loopback.rtt_ns = %.0f):\n", rtt)
	fmt.Fprintf(w, "  parse %.0f + handler-parse %.0f + net/http %.0f + socket %.0f; ordered: %v\n",
		parse, handler-parse, inmem-handler, rtt-inmem, parse <= handler && handler <= inmem && inmem <= rtt)
	score, decode, tally := v["corpusstore.score_ms"], v["corpusstore.decode_ms"], v["dataset.tally_ms"]
	fmt.Fprintf(w, "streamed score, one worker: decode %.1f ms + tally %.1f ms = %.0f%% of score %.1f ms\n",
		decode, tally, 100*(decode+tally)/score, score)
}

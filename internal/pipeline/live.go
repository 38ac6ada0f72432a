package pipeline

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/langid"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tldinfo"
	"github.com/webdep/webdep/internal/tlsscan"
)

// Live crawls a served world over real sockets: DNS resolution through the
// resolver client, TLS handshakes and page fetches against the world's
// HTTPS endpoint, then the same database joins as the fast pipeline.
type Live struct {
	// Pipeline supplies the enrichment databases.
	*Pipeline
	// DNS queries the world's authoritative server.
	DNS *resolver.Client
	// Scanner performs TLS handshakes and CA-owner labeling.
	Scanner *tlsscan.Scanner
	// TLSAddr is the world's HTTPS endpoint; sites are selected via SNI.
	TLSAddr string
	// Workers bounds crawl concurrency (default 8).
	Workers int
	// DetectLanguage additionally fetches each site's page and runs
	// language identification on the body.
	DetectLanguage bool

	// Resilience, when non-nil, governs retries, backoff, budgets, and
	// circuit breaking for the live probe paths: CrawlCorpus installs it
	// on the DNS client (unless that client carries its own policy, which
	// wins) and applies it around TLS scans (breaker kind "tls") and page
	// fetches (kind "http"). Nil means single-attempt probes apart from
	// the DNS client's own fixed retry loop.
	Resilience *resilience.Policy
	// MinCoverage is the per-country coverage threshold: countries whose
	// worst per-field coverage falls below it are flagged degraded in the
	// corpus (or abort the crawl under FailFast). Zero means 1.0 — any
	// residual probe loss degrades the country; negative disables the
	// check entirely.
	MinCoverage float64
	// FailFast aborts CrawlCorpus with an error at the first country
	// below MinCoverage instead of flagging it degraded and continuing.
	FailFast bool

	// Checkpoint, when non-nil, makes the crawl crash-safe: every
	// completed site is journaled, and a journal reopened with
	// checkpoint.Resume replays finished sites so only missing or lost
	// ones are re-probed. Replayed results merge into the corpus before
	// coverage accounting, so a resumed crawl converges to the exact
	// corpus of an uninterrupted run. The journal must carry this crawl's
	// epoch and country set; CrawlCorpus refuses a mismatched one. If the
	// journal's disk fails mid-crawl the journal disarms and the crawl
	// continues — check Checkpoint.Err afterwards.
	Checkpoint *checkpoint.Journal

	// Obs selects the metrics registry the crawl records to; nil means
	// obs.Default(). CrawlCorpus propagates it to the DNS client, TLS
	// scanner, and resilience policy (when their own registry is unset),
	// so one injected registry observes the whole live path.
	Obs *obs.Registry

	metricsOnce sync.Once
	metrics     *liveMetrics
}

// fieldCounters is one probe field's outcome accounting: ok/empty/lost
// mirror dataset.FieldCoverage, so obs totals and the corpus's coverage
// accounting must agree exactly (the observability tests enforce this).
type fieldCounters struct {
	ok, empty, lost *obs.Counter
}

func (f fieldCounters) observe(s dataset.FieldStatus) {
	switch s {
	case dataset.StatusOK:
		f.ok.Inc()
	case dataset.StatusEmpty:
		f.empty.Inc()
	case dataset.StatusLost:
		f.lost.Inc()
	}
}

// liveMetrics holds the crawl's hoisted instruments: per-field outcome
// counters feeding the same classification as dataset.Coverage, per-site
// crawl latency, and page-fetch latency (DNS and TLS latency live in the
// resolver and scanner). reused counts the fetch attempts that rode the CA
// probe's connection instead of dialling their own.
type liveMetrics struct {
	host, ns, ca, lang fieldCounters
	siteMS             *obs.Histogram
	sites              *obs.Counter
	httpMS             *obs.Histogram
	fetches            *obs.Counter
	fetchErrors        *obs.Counter
	reused             *obs.Counter
}

func (l *Live) reg() *obs.Registry {
	if l.Obs != nil {
		return l.Obs
	}
	return obs.Default()
}

func (l *Live) m() *liveMetrics {
	l.metricsOnce.Do(func() {
		r := l.reg()
		field := func(name string) fieldCounters {
			return fieldCounters{
				ok:    r.Counter("crawl." + name + ".ok"),
				empty: r.Counter("crawl." + name + ".empty"),
				lost:  r.Counter("crawl." + name + ".lost"),
			}
		}
		l.metrics = &liveMetrics{
			host:        field("host"),
			ns:          field("ns"),
			ca:          field("ca"),
			lang:        field("lang"),
			siteMS:      r.Timing("crawl.site_ms"),
			sites:       r.Counter("crawl.sites"),
			httpMS:      r.Timing("probe.http.ms"),
			fetches:     r.Counter("probe.http.fetches"),
			fetchErrors: r.Counter("probe.http.errors"),
			reused:      r.Counter("probe.http.reused"),
		}
	})
	return l.metrics
}

// FlagDegraded applies the coverage threshold (0 → 1.0, negative →
// disabled) to one country: below it the country is flagged degraded or,
// with failFast, is an error. CrawlCorpus calls it per country; a corpus
// assembled from journals instead (fedcrawl.Merge) gets it from its caller.
func FlagDegraded(cov *dataset.Coverage, minCoverage float64, failFast bool) error {
	min := minCoverage
	switch {
	case min == 0:
		min = 1
	case min < 0:
		min = 0
	}
	if frac := cov.Fraction(); frac < min {
		if failFast {
			return fmt.Errorf("pipeline: country %s coverage %.3f below minimum %.3f (%d probes lost)",
				cov.Country, frac, min, cov.Lost())
		}
		cov.Degraded = true
	}
	return nil
}

// CrawlCountry measures one country's domains end-to-end over the same
// context-aware path as CrawlCorpus: cancelling ctx aborts the crawl
// promptly with the context's error. Per-domain failures leave the
// affected fields empty rather than failing the crawl.
func (l *Live) CrawlCountry(ctx context.Context, cc, epoch string, domains []string) (*dataset.CountryList, error) {
	corpus, err := l.CrawlCorpus(ctx, epoch, []string{cc},
		func(string) []string { return domains }, nil)
	if err != nil {
		return nil, err
	}
	return corpus.Get(cc), nil
}

// SiteJob is one (country, domain) unit of crawl work carrying the
// domain's global toplist rank, so a sharded crawl — probing an arbitrary
// slice of a country's list — records the exact ranks an unsharded crawl
// assigns. Rank is 1-based.
type SiteJob struct {
	Country string
	Domain  string
	Rank    int
}

// CrawlCorpus measures every listed country over one global worker budget:
// all (country, domain) crawl jobs share the same pool of l.Workers
// goroutines, so a large country cannot serialize the corpus behind it and
// small countries do not leave workers idle. Results are index-addressed
// per (country, rank), making the corpus identical to per-country
// sequential crawls; coverage accounting is folded serially after the pool
// drains, so it is deterministic too. The optional progress callback fires
// once per country as its last site completes; invocations are serialized,
// so callers may write to a shared stream without interleaving. Cancelling
// ctx aborts the crawl promptly with the context's error.
func (l *Live) CrawlCorpus(ctx context.Context, epoch string, ccs []string, domainsOf func(cc string) []string, progress func(cc string, sites int)) (*dataset.Corpus, error) {
	// Flatten the per-country domain lists into one job list so the worker
	// budget is truly global.
	domains := make([][]string, len(ccs))
	remaining := make([]int64, len(ccs))
	var jobs []SiteJob
	var ccOf, domOf []int
	for i, cc := range ccs {
		domains[i] = domainsOf(cc)
		remaining[i] = int64(len(domains[i]))
		for j, d := range domains[i] {
			jobs = append(jobs, SiteJob{Country: cc, Domain: d, Rank: j + 1})
			ccOf = append(ccOf, i)
			domOf = append(domOf, j)
		}
	}

	sites := make([][]dataset.Website, len(ccs))
	outcomes := make([][]dataset.SiteOutcome, len(ccs))
	for i := range ccs {
		sites[i] = make([]dataset.Website, len(domains[i]))
		outcomes[i] = make([]dataset.SiteOutcome, len(domains[i]))
	}

	var progressMu sync.Mutex
	flatSites, flatOutcomes, err := l.crawlJobs(ctx, epoch, ccs, jobs, func(k int) {
		i := ccOf[k]
		if progress != nil && atomic.AddInt64(&remaining[i], -1) == 0 {
			progressMu.Lock()
			progress(ccs[i], len(sites[i]))
			progressMu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	for k := range jobs {
		sites[ccOf[k]][domOf[k]] = flatSites[k]
		outcomes[ccOf[k]][domOf[k]] = flatOutcomes[k]
	}

	corpus := dataset.NewCorpus(epoch)
	// Record the worker count the crawl actually ran with, not the raw
	// (possibly zero) knob.
	corpus.Workers = l.workerCount()
	for i, cc := range ccs {
		corpus.Add(&dataset.CountryList{Country: cc, Epoch: epoch, Sites: sites[i]})
		cov := &dataset.Coverage{Country: cc}
		for _, o := range outcomes[i] {
			cov.Observe(o)
		}
		if err := FlagDegraded(cov, l.MinCoverage, l.FailFast); err != nil {
			return nil, err
		}
		corpus.SetCoverage(cov)
	}
	return corpus, nil
}

// CrawlJobs is the sharded entry point: it probes an explicit job list —
// one federated worker's slice of a larger crawl — under the same engine,
// checkpointing, and resilience wiring as CrawlCorpus, and returns the
// sites and outcomes indexed like jobs. The countries list is the WHOLE
// campaign's country set (it keys the checkpoint journal header), not just
// the countries the jobs touch; every job must fall inside it. Ranks are
// recorded exactly as given, so a merge over every worker's journals
// reassembles the same corpus an unsharded crawl produces.
func (l *Live) CrawlJobs(ctx context.Context, epoch string, countries []string, jobs []SiteJob) ([]dataset.Website, []dataset.SiteOutcome, error) {
	ccSet := make(map[string]bool, len(countries))
	for _, cc := range countries {
		ccSet[cc] = true
	}
	for _, job := range jobs {
		if !ccSet[job.Country] {
			return nil, nil, fmt.Errorf("pipeline: job for %s/%s outside the crawl's country set %v",
				job.Country, job.Domain, countries)
		}
		if job.Rank < 1 {
			return nil, nil, fmt.Errorf("pipeline: job for %s/%s has rank %d; ranks are 1-based",
				job.Country, job.Domain, job.Rank)
		}
	}
	return l.crawlJobs(ctx, epoch, countries, jobs, nil)
}

// workerCount resolves the Workers knob to the effective pool size.
func (l *Live) workerCount() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return 8
}

// crawlJobs is the shared crawl engine: it validates the crawler, wires
// observability and resilience, and probes every job over the global
// worker pool, consulting and feeding the checkpoint journal. onDone (when
// non-nil) fires after job k's result lands, on the worker's goroutine.
func (l *Live) crawlJobs(ctx context.Context, epoch string, countries []string, jobs []SiteJob, onDone func(k int)) ([]dataset.Website, []dataset.SiteOutcome, error) {
	if l.DNS == nil || l.Scanner == nil {
		return nil, nil, fmt.Errorf("pipeline: live crawl needs DNS client and TLS scanner")
	}
	if l.Checkpoint != nil {
		// A journal from another campaign must never merge silently: the
		// epoch and country set have to match exactly.
		if err := l.Checkpoint.Matches(epoch, countries); err != nil {
			return nil, nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := l.workerCount()
	// Point every component at the crawl's registry before any probe runs,
	// so one injected registry observes the whole live path; components
	// carrying their own registry keep it.
	if l.Obs != nil {
		if l.DNS.Obs == nil {
			l.DNS.Obs = l.Obs
		}
		if l.Scanner.Obs == nil {
			l.Scanner.Obs = l.Obs
		}
		if l.Resilience != nil && l.Resilience.Obs == nil {
			l.Resilience.Obs = l.Obs
		}
	}
	if l.Resilience != nil && l.DNS.Policy == nil {
		l.DNS.Policy = l.Resilience
	}
	crawlSpan := obs.StartSpan(l.reg().Timing("stage.crawl.ms"))
	defer crawlSpan.End()

	sites := make([]dataset.Website, len(jobs))
	outcomes := make([]dataset.SiteOutcome, len(jobs))
	err := parallel.ForEachIndexed(ctx, workers, len(jobs), func(ctx context.Context, k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := jobs[k]
		if l.Checkpoint != nil {
			// Resume path: a journaled site with no transient loss is not
			// re-probed — its stored result merges into the corpus (and
			// its outcome into the coverage accounting) exactly as if this
			// run had crawled it.
			if w, o, ok := l.Checkpoint.Reuse(job.Country, job.Domain); ok {
				sites[k], outcomes[k] = w, o
				if onDone != nil {
					onDone(k)
				}
				return nil
			}
		}
		sites[k], outcomes[k] = l.crawlOne(ctx, job.Country, job.Domain, job.Rank)
		if l.Checkpoint != nil {
			// Journal the completed site before it can be lost to a crash.
			// Append never fails the crawl: a dead checkpoint disk disarms
			// journaling and the campaign keeps its results.
			l.Checkpoint.Append(job.Country, sites[k], outcomes[k])
		}
		if onDone != nil {
			onDone(k)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sites, outcomes, nil
}

// outcomeOf maps a probe error onto a coverage status: authoritative
// negatives are StatusEmpty (the absence was measured), everything else —
// exhausted transient retries and open circuits — is StatusLost.
func outcomeOf(err error, classify resilience.Classifier) dataset.FieldStatus {
	switch {
	case err == nil:
		return dataset.StatusOK
	case errors.Is(err, resilience.ErrCircuitOpen):
		return dataset.StatusLost
	case classify(err) == resilience.Permanent:
		return dataset.StatusEmpty
	}
	return dataset.StatusLost
}

// crawlOne measures one site and classifies every probe's outcome so the
// crawl can distinguish "the field is absent" from "the measurement was
// lost".
func (l *Live) crawlOne(ctx context.Context, cc, domain string, rank int) (dataset.Website, dataset.SiteOutcome) {
	m := l.m()
	sp := obs.StartSpan(m.siteMS)
	w, o := l.crawlSite(ctx, cc, domain, rank)
	sp.End()
	m.sites.Inc()
	m.host.observe(o.Host)
	m.ns.observe(o.NS)
	m.ca.observe(o.CA)
	m.lang.observe(o.Language)
	return w, o
}

// crawlSite performs the actual probes; crawlOne wraps it with the span
// and outcome accounting.
func (l *Live) crawlSite(ctx context.Context, cc, domain string, rank int) (dataset.Website, dataset.SiteOutcome) {
	w := dataset.Website{
		Domain:  domain,
		Country: cc,
		Rank:    rank,
		TLD:     tldinfo.Extract(domain),
	}
	var o dataset.SiteOutcome
	j := l.joins()

	// Hosting: A lookup, then geo/AS/anycast joins on the first address.
	addrs, err := l.DNS.LookupAContext(ctx, domain)
	switch {
	case err != nil:
		o.Host = outcomeOf(err, resolver.Classify)
	case len(addrs) == 0:
		o.Host = dataset.StatusEmpty
	default:
		j.annotateHost(&w, addrs[0])
		o.Host = dataset.StatusOK
	}

	// DNS infrastructure: NS lookup, using volunteered glue when present
	// and falling back to an explicit A lookup for the nameserver host.
	nss, glue, err := l.DNS.LookupNSGluedContext(ctx, domain)
	switch {
	case err != nil:
		o.NS = outcomeOf(err, resolver.Classify)
	case len(nss) == 0:
		o.NS = dataset.StatusEmpty
	default:
		if addrs := glue[nss[0]]; len(addrs) > 0 {
			j.annotateNS(&w, addrs[0])
			o.NS = dataset.StatusOK
			break
		}
		nsAddrs, err := l.DNS.LookupAContext(ctx, nss[0])
		switch {
		case err != nil:
			o.NS = outcomeOf(err, resolver.Classify)
		case len(nsAddrs) == 0:
			o.NS = dataset.StatusEmpty
		default:
			j.annotateNS(&w, nsAddrs[0])
			o.NS = dataset.StatusOK
		}
	}

	// CA: real TLS handshake with SNI selecting the site. When a page fetch
	// follows, the scan leaves its session open and the fetch owns it.
	res, conn, err := l.scanTLS(ctx, domain)
	if err == nil {
		w.CAOwner = res.CAOwner
		w.CAOwnerCountry = res.CAOwnerCountry
		o.CA = dataset.StatusOK
	} else {
		o.CA = outcomeOf(err, resilience.DefaultClassify)
	}

	if l.DetectLanguage {
		if body, err := l.fetchPage(ctx, conn, domain); err == nil {
			w.Language = langid.Detect(body)
			o.Language = dataset.StatusOK
		} else {
			o.Language = outcomeOf(err, httpClassify)
		}
	}
	return w, o
}

// scanTLS performs the CA probe, under the resilience policy when one is
// configured (breaker kind "tls"). With DetectLanguage set it returns the
// successful attempt's open connection, which the caller must hand to
// fetchPage; otherwise, and on any error, conn is nil and already closed.
func (l *Live) scanTLS(ctx context.Context, domain string) (res *tlsscan.Result, conn *tls.Conn, err error) {
	scan := func(ctx context.Context) error {
		res, conn, err = l.Scanner.ScanConn(ctx, l.TLSAddr, domain)
		return err
	}
	if l.Resilience == nil {
		err = scan(ctx)
	} else {
		err = l.Resilience.Do(ctx, "tls", scan)
	}
	// Nothing follows the scan without DetectLanguage. And a caller who
	// cancelled just as the handshake completed gets the policy's
	// cancellation, not the attempt's success, so no fetch will follow.
	if conn != nil && (err != nil || !l.DetectLanguage) {
		conn.Close()
		conn = nil
	}
	return res, conn, err
}

// fetchPage fetches the site's page body, under the resilience policy when
// one is configured (breaker kind "http"). Server-side 5xx responses are
// transient — the page may exist on retry — while other non-2xx statuses
// are authoritative negatives. kept is the session the CA probe left open,
// or nil: the first attempt sends its request over it and a retry dials its
// own, so a connection is never used twice. fetchPage owns kept and closes
// it even when no attempt runs (open breaker, cancelled ctx).
func (l *Live) fetchPage(ctx context.Context, kept *tls.Conn, domain string) (body string, err error) {
	defer func() {
		if kept != nil {
			kept.Close()
		}
	}()
	fetch := func(ctx context.Context) error {
		conn := kept
		kept = nil // fetchBodyObserved closes what it is given
		body, err = l.fetchBodyObserved(ctx, conn, domain)
		return err
	}
	if l.Resilience == nil {
		err = fetch(ctx)
	} else {
		err = l.Resilience.DoClassified(ctx, "http", httpClassify, fetch)
	}
	return body, err
}

// fetchBodyObserved runs one fetch attempt with the "probe.http.*"
// instruments, over conn when it is given one and over its own dial
// otherwise; either way the connection is closed on return. Under a
// resilience policy it runs once per attempt, so the fetch counter matches
// the policy's attempt accounting for the "http" kind. A failed dial counts
// as a failed fetch, and the dial's handshake is inside "probe.http.ms".
func (l *Live) fetchBodyObserved(ctx context.Context, conn *tls.Conn, domain string) (body string, err error) {
	m := l.m()
	m.fetches.Inc()
	sp := obs.StartSpan(m.httpMS)
	defer func() {
		sp.End()
		if err != nil {
			m.fetchErrors.Inc()
		}
	}()
	if conn != nil {
		m.reused.Inc()
	} else if conn, err = l.Scanner.Dial(ctx, l.TLSAddr, domain); err != nil {
		return "", err
	}
	defer conn.Close()
	return fetchBody(ctx, conn, domain)
}

// HTTPStatusError reports a non-2xx status from a page fetch.
type HTTPStatusError struct{ Code int }

func (e *HTTPStatusError) Error() string {
	return fmt.Sprintf("pipeline: HTTP status %d", e.Code)
}

// httpClassify maps page-fetch errors onto resilience classes: 5xx is
// transient, any other HTTP status permanent, and everything else falls
// through to the default network classification.
func httpClassify(err error) resilience.Class {
	var se *HTTPStatusError
	if errors.As(err, &se) {
		if se.Code >= 500 {
			return resilience.Transient
		}
		return resilience.Permanent
	}
	return resilience.DefaultClassify(err)
}

// maxBodyBytes bounds how much of a page a fetch will keep; pages beyond
// the cap are truncated, which is ample for language detection. Twice the
// cap bounds what is read off the wire for it (headers, chunk framing), so
// a hostile endpoint cannot grow either without limit.
const maxBodyBytes = 1 << 20

// fetchBody sends a minimal GET with the domain as Host over an open TLS
// session to the site and returns the decoded response body. Non-2xx
// responses are returned as *HTTPStatusError without reading the body — an
// error page must not masquerade as site content downstream (e.g. language
// detection). A body that ends before its Content-Length or its last chunk
// is an error, never a short page. The exchange is bounded by maxBodyBytes,
// by 3 s and by ctx's deadline; the caller closes conn.
func fetchBody(ctx context.Context, conn *tls.Conn, domain string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	dl := time.Now().Add(3 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	if err := conn.SetDeadline(dl); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "GET / HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", domain); err != nil {
		return "", err
	}
	// resp.Body is not closed: closing would drain the rest of an over-long
	// page, and the connection is closed by the caller anyway.
	resp, err := http.ReadResponse(bufio.NewReader(io.LimitReader(conn, 2*maxBodyBytes)), nil)
	if err != nil {
		return "", err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return "", &HTTPStatusError{Code: resp.StatusCode}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return "", err
	}
	return string(body), nil
}

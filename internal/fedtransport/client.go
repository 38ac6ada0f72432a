package fedtransport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
)

// ClientConfig wires the coordinator's side of the transport: where each
// vantage worker listens, which key signs its traffic, and where admitted
// journals land.
type ClientConfig struct {
	// Workers lists the vantage worker names in shard-index order; the
	// position of a name is its ShardInfo index and len(Workers) its Total.
	Workers []string
	// URL maps each worker to its vantage base URL ("http://host:port").
	URL map[string]string
	// Key maps each worker to the HMAC key shared with its vantage.
	Key map[string][]byte
	// Dir is the coordinator's journal directory: verified artifacts are
	// admitted here atomically as <worker>-g<gen>.journal, exactly where
	// fedcrawl's scan-and-merge loop reads.
	Dir string
	// Epoch and Countries pin the campaign; artifacts signed for any other
	// campaign are refused as foreign.
	Epoch     string
	Countries []string
	// Policy governs retry, backoff, per-attempt timeouts, and per-vantage
	// circuit breakers for every transport call. nil gets a modest default
	// with breakers; production callers should tune it like any other
	// resilience policy.
	Policy *resilience.Policy
	// Obs selects the metrics registry (nil means obs.Default()).
	Obs *obs.Registry
}

// clientMetrics is the obs mirror of the client's atomic Stats; every
// event is recorded in both, so tests can cross-check the emitted counters
// against ground truth.
type clientMetrics struct {
	dispatches, admitted, detached, deaths           *obs.Counter
	forged, truncated, replayed, foreign, corruptRef *obs.Counter
}

// RefusalStats counts refused artifacts by kind.
type RefusalStats struct {
	Forged, Truncated, Replayed, Foreign, Corrupt int64
}

// Stats is a point-in-time copy of the client's own atomic accounting.
type Stats struct {
	// Dispatches counts assignments handed to the transport.
	Dispatches int64
	// Admitted counts artifacts verified and atomically admitted to Dir.
	Admitted int64
	// DetachedArrivals counts dispatches whose wave moved on (straggler
	// deadline, caller cancellation) while delivery kept running; their
	// artifacts are still admitted whenever they land.
	DetachedArrivals int64
	// WorkerDeaths counts dispatches that ended in ErrWorkerDead.
	WorkerDeaths int64
	// Refusals counts refused artifacts by kind. A refused artifact may be
	// re-fetched (truncation is transient), so refusals and admissions for
	// one dispatch are not exclusive.
	Refusals RefusalStats
}

type clientCounters struct {
	dispatches, admitted, detached, deaths        atomic.Int64
	forged, truncated, replayed, foreign, corrupt atomic.Int64
}

// statusError is a non-200 vantage answer; 5xx classify transient (the
// proxy tier melting down), 4xx permanent (the vantage refused us).
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("fedtransport: vantage answered %d: %s", e.code, e.body)
}

// admitFailure marks a local admission failure — the artifact verified but
// could not be written to Dir. That is coordinator-side disk trouble, not
// the worker's fault, so it fails the federation loudly instead of
// forfeiting the shard.
type admitFailure struct{ err error }

func (e *admitFailure) Error() string { return "fedtransport: admitting artifact: " + e.err.Error() }
func (e *admitFailure) Unwrap() error { return e.err }

// Client dispatches shard assignments to remote vantages and admits their
// signed journal artifacts. Its Dispatcher plugs straight into
// fedcrawl.Config.Dispatch; all delivery runs through the resilience
// policy, and a delivery whose wave is cancelled detaches rather than
// aborts — the artifact is verified and admitted whenever it arrives,
// and the coordinator's next durable-state scan simply finds more keys
// complete than it dispatched.
type Client struct {
	cfg    ClientConfig
	index  map[string]int
	policy *resilience.Policy
	http   *http.Client
	m      clientMetrics
	stats  clientCounters

	lifeCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewClient validates the wiring and builds a transport client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fedtransport: client needs at least one worker")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fedtransport: client needs a journal directory")
	}
	if cfg.Epoch == "" {
		return nil, fmt.Errorf("fedtransport: client needs an epoch")
	}
	index := make(map[string]int, len(cfg.Workers))
	for i, w := range cfg.Workers {
		if _, dup := index[w]; dup {
			return nil, fmt.Errorf("fedtransport: duplicate worker %q", w)
		}
		if cfg.URL[w] == "" {
			return nil, fmt.Errorf("fedtransport: worker %q has no vantage URL", w)
		}
		if len(cfg.Key[w]) == 0 {
			return nil, fmt.Errorf("fedtransport: worker %q has no signing key", w)
		}
		index[w] = i
	}
	pol := cfg.Policy
	if pol == nil {
		pol = &resilience.Policy{
			MaxAttempts:    4,
			BaseDelay:      50 * time.Millisecond,
			MaxDelay:       2 * time.Second,
			AttemptTimeout: 30 * time.Second,
			Breakers:       resilience.NewBreakerSet(4, 5*time.Second),
			Obs:            cfg.Obs,
		}
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	c := &Client{
		cfg:    cfg,
		index:  index,
		policy: pol,
		http:   &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		m: clientMetrics{
			dispatches: reg.Counter("fedtransport.dispatches"),
			admitted:   reg.Counter("fedtransport.admitted"),
			detached:   reg.Counter("fedtransport.detached_arrivals"),
			deaths:     reg.Counter("fedtransport.worker_deaths"),
			forged:     reg.Counter("fedtransport.refusals.forged"),
			truncated:  reg.Counter("fedtransport.refusals.truncated"),
			replayed:   reg.Counter("fedtransport.refusals.replayed"),
			foreign:    reg.Counter("fedtransport.refusals.foreign"),
			corruptRef: reg.Counter("fedtransport.refusals.corrupt"),
		},
	}
	c.lifeCtx, c.cancel = context.WithCancel(context.Background())
	return c, nil
}

// Stats snapshots the client's atomic accounting.
func (c *Client) Stats() Stats {
	return Stats{
		Dispatches:       c.stats.dispatches.Load(),
		Admitted:         c.stats.admitted.Load(),
		DetachedArrivals: c.stats.detached.Load(),
		WorkerDeaths:     c.stats.deaths.Load(),
		Refusals: RefusalStats{
			Forged:    c.stats.forged.Load(),
			Truncated: c.stats.truncated.Load(),
			Replayed:  c.stats.replayed.Load(),
			Foreign:   c.stats.foreign.Load(),
			Corrupt:   c.stats.corrupt.Load(),
		},
	}
}

// Policy exposes the client's resilience policy for accounting checks.
func (c *Client) Policy() *resilience.Policy { return c.policy }

// Dispatcher returns the fedcrawl.Config.Dispatch hook.
func (c *Client) Dispatcher() func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
	return c.dispatch
}

// Close cancels detached deliveries and waits for every delivery goroutine
// to drain. After Close the client dispatches nothing.
func (c *Client) Close() {
	c.cancel()
	c.wg.Wait()
	c.http.CloseIdleConnections()
}

// dispatch hands one wave assignment to the wire. Delivery runs on the
// client's own lifetime context: if the wave's context is cancelled first
// (straggler deadline, caller cancellation), dispatch returns the wave's
// context error — which the coordinator treats as an interrupted wave —
// while the delivery DETACHES and keeps going, admitting the artifact
// whenever it completes. The coordinator re-reads durable state between
// waves, so late-landing journals are picked up, never lost and never
// double-counted.
func (c *Client) dispatch(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
	index, ok := c.index[worker]
	if !ok {
		return fmt.Errorf("fedtransport: dispatch for unknown worker %q", worker)
	}
	c.stats.dispatches.Add(1)
	c.m.dispatches.Inc()
	a := fedcrawl.Assignment{
		Worker: worker, Index: index, Total: len(c.cfg.Workers), Gen: gen,
		Epoch: c.cfg.Epoch, Countries: c.cfg.Countries, Jobs: jobs,
	}
	res := make(chan error, 1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		res <- c.deliver(c.lifeCtx, a)
	}()
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		c.stats.detached.Add(1)
		c.m.detached.Inc()
		return ctx.Err()
	}
}

// deliver runs one assignment's full request → artifact → admission
// exchange under the resilience policy and maps the outcome onto
// fedcrawl's Dispatch contract: nil (journal admitted, worker fine), an error wrapping
// fedcrawl.ErrWorkerDead (worker is done — retries exhausted, circuit
// open, a permanent refusal, or a signed disarm), a context error
// (cancelled), or a bare error for coordinator-side failures that must
// fail the federation rather than forfeit a shard.
func (c *Client) deliver(ctx context.Context, a fedcrawl.Assignment) error {
	worker, gen := a.Worker, a.Gen
	body, err := json.Marshal(a)
	if err != nil {
		return err
	}
	sig := signBody(c.cfg.Key[worker], body)

	var disarmed bool
	err = c.policy.DoClassified(ctx, "vantage:"+worker, classifyTransport, func(actx context.Context) error {
		art, err := c.fetch(actx, worker, gen, body, sig)
		if err != nil {
			c.countRefusal(err)
			return err
		}
		if err := c.admit(worker, gen, art); err != nil {
			return &admitFailure{err: err}
		}
		disarmed = art.Meta.Disarmed
		c.stats.admitted.Add(1)
		c.m.admitted.Inc()
		return nil
	})

	switch {
	case err == nil && !disarmed:
		return nil
	case err == nil && disarmed:
		return c.workerDeath(worker, fmt.Errorf("vantage disarmed mid-crawl; its durable prefix is admitted"))
	case ctx.Err() != nil:
		return ctx.Err()
	}
	var af *admitFailure
	if errors.As(err, &af) {
		return err
	}
	return c.workerDeath(worker, err)
}

func (c *Client) workerDeath(worker string, cause error) error {
	c.stats.deaths.Add(1)
	c.m.deaths.Inc()
	return fmt.Errorf("fedtransport: worker %s: %v: %w", worker, cause, fedcrawl.ErrWorkerDead)
}

// fetch runs one HTTP exchange: POST the signed assignment, read the
// artifact within the attempt's deadline, verify it against exactly this
// dispatch.
func (c *Client) fetch(ctx context.Context, worker string, gen int, body []byte, sig string) (*Artifact, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.cfg.URL[worker]+"/crawl", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(sigHeader, sig)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxArtifactBytes+1))
	if resp.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, &statusError{code: resp.StatusCode, body: msg}
	}
	// A cut-short body — the proxy's truncation, a reset mid-stream, a
	// fired attempt deadline — still hands whatever arrived to the
	// verifier: an incomplete artifact refuses as truncated, typed and
	// counted, and classifies transient exactly like the wire error
	// itself. (If the full artifact made it despite a trailing error, the
	// verification below simply succeeds.)
	_ = err
	return VerifyArtifact(data, Expect{
		Key:       c.cfg.Key[worker],
		Worker:    worker,
		Gen:       gen,
		Epoch:     c.cfg.Epoch,
		Countries: c.cfg.Countries,
	})
}

// admit writes a verified artifact's journal into the merge directory
// under the exact name fedcrawl's durable-state scan expects, via the same
// atomic temp-write-fsync-rename every other journal goes through: the
// merge directory never holds a half-admitted artifact.
func (c *Client) admit(worker string, gen int, art *Artifact) error {
	path := filepath.Join(c.cfg.Dir, fedcrawl.JournalName(worker, gen))
	return checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(art.Journal)
		return err
	})
}

// countRefusal dual-records a refusal under fedtransport.refusals.<kind>.
func (c *Client) countRefusal(err error) {
	var re *RefusalError
	if !errors.As(err, &re) {
		return
	}
	switch re.Kind {
	case RefusedForged:
		c.stats.forged.Add(1)
		c.m.forged.Inc()
	case RefusedTruncated:
		c.stats.truncated.Add(1)
		c.m.truncated.Inc()
	case RefusedReplayed:
		c.stats.replayed.Add(1)
		c.m.replayed.Inc()
	case RefusedForeign:
		c.stats.foreign.Add(1)
		c.m.foreign.Inc()
	case RefusedCorrupt:
		c.stats.corrupt.Add(1)
		c.m.corruptRef.Inc()
	}
}

// classifyTransport maps one delivery attempt's error onto retry classes.
// Wire damage — truncated artifacts, short reads, resets, timeouts, a 5xx
// proxy tier — is transient: the vantage may well be fine behind it. A
// forged, replayed, or foreign artifact is authoritative evidence about
// the peer and never retried, as is a signed-but-corrupt one (the vantage
// itself signed damage) and any 4xx refusal of our assignment.
func classifyTransport(err error) resilience.Class {
	if err == nil {
		return resilience.Success
	}
	var re *RefusalError
	if errors.As(err, &re) {
		if re.Kind == RefusedTruncated {
			return resilience.Transient
		}
		return resilience.Permanent
	}
	var se *statusError
	if errors.As(err, &se) {
		if se.code >= 500 {
			return resilience.Transient
		}
		return resilience.Permanent
	}
	var af *admitFailure
	if errors.As(err, &af) {
		return resilience.Permanent
	}
	return resilience.DefaultClassify(err)
}

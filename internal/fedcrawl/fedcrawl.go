// Package fedcrawl coordinates a federated multi-vantage crawl: the
// (country, domain) work-list is deterministically partitioned into
// contiguous rank shards, each shard is dispatched to one of N workers, and
// every worker journals its slice into its own CRC-framed checkpoint shard
// journal. The coordinator trusts only durable state — between waves it
// re-reads every journal in the directory and re-dispatches exactly the
// keys with no complete record, so a worker killed at ANY journal offset
// (whole-record or mid-record) simply forfeits its unwritten tail to the
// survivors. When nothing is missing, the journals merge into a single
// corpus that is byte-identical to an unsharded fault-free crawl, along
// with per-country cross-vantage disagreement accounting for keys probed
// by more than one worker.
package fedcrawl

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
)

// Shard is one contiguous slice of one country's ranked domain list — the
// unit of dispatch, re-dispatch, and retry accounting.
type Shard struct {
	ID      int
	Country string
	Jobs    []pipeline.SiteJob
}

// Partition splits each country's ranked domain list into at most n
// contiguous shards of near-equal size, preserving global ranks. The
// partition is a pure function of its inputs: every coordinator (or a
// rebuilt one resuming a half-finished directory) derives the identical
// work-list, which is what makes re-dispatch after failure safe.
func Partition(ccs []string, domainsOf func(cc string) []string, n int) []Shard {
	if n < 1 {
		n = 1
	}
	var shards []Shard
	for _, cc := range ccs {
		domains := domainsOf(cc)
		chunks := n
		if len(domains) < chunks {
			chunks = len(domains)
		}
		if chunks == 0 {
			continue
		}
		base, rem := len(domains)/chunks, len(domains)%chunks
		start := 0
		for i := 0; i < chunks; i++ {
			size := base
			if i < rem {
				size++
			}
			jobs := make([]pipeline.SiteJob, 0, size)
			for j := start; j < start+size; j++ {
				jobs = append(jobs, pipeline.SiteJob{Country: cc, Domain: domains[j], Rank: j + 1})
			}
			shards = append(shards, Shard{ID: len(shards), Country: cc, Jobs: jobs})
			start += size
		}
	}
	return shards
}

// Config wires a federated crawl.
type Config struct {
	Epoch     string
	Countries []string
	// DomainsOf returns a country's ranked domain list; rank is position+1.
	DomainsOf func(cc string) []string
	// Workers is the federation width: the number of independent crawl
	// workers, each with its own journal per wave.
	Workers int
	// Dir is the journal directory. The coordinator scans it before every
	// wave, so a directory left behind by a dead coordinator resumes: only
	// the keys without a complete durable record are re-dispatched.
	Dir string
	// Dispatch runs one worker's wave assignment. Required: Local crawls
	// in this process, a fedtransport Client ships the jobs to a remote
	// vantage; both end in CrawlShard and return in its contract. nil
	// means the worker's journal for (worker, gen) is durably in Dir (the
	// next scan judges completeness from the file, never from the return
	// value); an error wrapping ErrWorkerDead declares the worker
	// permanently dead (its keys re-dispatch to survivors); the context's
	// error means the wave was cancelled out from under it; any other
	// error fails the federation.
	Dispatch func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error
	// ShardRetries bounds how many times one shard may be RE-dispatched
	// after its first dispatch (covering worker deaths, stragglers, and
	// residual transient loss). 0 means the default of 3; negative means
	// no retries.
	ShardRetries int
	// StragglerAfter, when positive, is each wave's soft deadline: a wave
	// still running after it is cancelled and its unfinished keys are
	// re-dispatched in the next wave. Zero disables straggler detection.
	StragglerAfter time.Duration
	// Replicate dispatches each shard's FIRST wave to this many additional
	// distinct workers. The duplicate probes are pure overhead for the
	// corpus (the merge keeps one winner per key) but give every key a
	// cross-vantage disagreement measurement.
	Replicate int
	// Obs selects the metrics registry; nil means obs.Default().
	Obs *obs.Registry
}

func (c *Config) retries() int {
	switch {
	case c.ShardRetries == 0:
		return 3
	case c.ShardRetries < 0:
		return 0
	}
	return c.ShardRetries
}

func (c *Config) reg() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// Stats is the coordinator's accounting. Every field is dual-recorded as a
// fedcrawl.* counter in the registry.
type Stats struct {
	// Waves counts dispatch rounds that sent at least one shard to a
	// worker.
	Waves int64
	// Dispatches counts shard dispatches, including re-dispatches but not
	// replicas.
	Dispatches int64
	// Redispatches counts dispatches after a shard's first, each paid for
	// from the shard's retry budget.
	Redispatches int64
	// Replicas counts extra cross-vantage dispatches made for disagreement
	// measurement.
	Replicas int64
	// WorkerDeaths counts workers whose journal disarmed mid-crawl; a dead
	// worker receives no further dispatches.
	WorkerDeaths int64
	// Stragglers counts waves in which the StragglerAfter deadline actually
	// cancelled unfinished work (a deadline that fires after every worker
	// already returned cancels nothing and is not a straggler).
	Stragglers int64
}

type fedMetrics struct {
	waves, dispatches, redispatches, replicas, deaths, stragglers *obs.Counter
}

func newFedMetrics(reg *obs.Registry) *fedMetrics {
	return &fedMetrics{
		waves:        reg.Counter("fedcrawl.waves"),
		dispatches:   reg.Counter("fedcrawl.dispatches"),
		redispatches: reg.Counter("fedcrawl.redispatches"),
		replicas:     reg.Counter("fedcrawl.replicas"),
		deaths:       reg.Counter("fedcrawl.worker_deaths"),
		stragglers:   reg.Counter("fedcrawl.stragglers"),
	}
}

// Result is a completed federated crawl.
type Result struct {
	Corpus       *dataset.Corpus
	Disagreement Disagreement
	// Merge is the final merge's accounting (journals folded, refusals —
	// zero on a healthy run — and torn tails tolerated).
	Merge checkpoint.Stats
	// Journals lists the shard journals the final merge folded, sorted.
	Journals []string
	Stats    Stats
}

// Coordinator runs one federated crawl to completion.
type Coordinator struct {
	cfg     Config
	shards  []Shard
	budgets []*resilience.Budget
	workers []string
	m       *fedMetrics

	mu         sync.Mutex
	dead       map[string]bool
	dispatched map[int]int

	stats struct {
		waves, dispatches, redispatches atomic.Int64
		replicas, deaths, stragglers    atomic.Int64
	}
}

// New validates the config and derives the deterministic shard partition.
func New(cfg Config) (*Coordinator, error) {
	switch {
	case cfg.Epoch == "":
		return nil, fmt.Errorf("fedcrawl: config needs an epoch")
	case len(cfg.Countries) == 0:
		return nil, fmt.Errorf("fedcrawl: config needs a country set")
	case cfg.DomainsOf == nil:
		return nil, fmt.Errorf("fedcrawl: config needs a domain source")
	case cfg.Workers < 1:
		return nil, fmt.Errorf("fedcrawl: config needs at least one worker, got %d", cfg.Workers)
	case cfg.Dir == "":
		return nil, fmt.Errorf("fedcrawl: config needs a journal directory")
	case cfg.Dispatch == nil:
		return nil, fmt.Errorf("fedcrawl: config needs a Dispatch")
	case cfg.Replicate < 0:
		return nil, fmt.Errorf("fedcrawl: negative replication %d", cfg.Replicate)
	}
	c := &Coordinator{
		cfg:        cfg,
		shards:     Partition(cfg.Countries, cfg.DomainsOf, cfg.Workers),
		m:          newFedMetrics(cfg.reg()),
		dead:       map[string]bool{},
		dispatched: map[int]int{},
	}
	for range c.shards {
		c.budgets = append(c.budgets, resilience.NewBudget(cfg.retries()))
	}
	for i := 0; i < cfg.Workers; i++ {
		c.workers = append(c.workers, workerName(i))
	}
	return c, nil
}

// workerName is the name of the worker at shard index i.
func workerName(i int) string { return fmt.Sprintf("w%d", i) }

// Stats snapshots the coordinator's accounting.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Waves:        c.stats.waves.Load(),
		Dispatches:   c.stats.dispatches.Load(),
		Redispatches: c.stats.redispatches.Load(),
		Replicas:     c.stats.replicas.Load(),
		WorkerDeaths: c.stats.deaths.Load(),
		Stragglers:   c.stats.stragglers.Load(),
	}
}

// Run drives waves of dispatch until every key in the work-list has a
// complete durable record, then merges the shard journals into the final
// corpus. Completion is judged only from what the journals hold on disk —
// never from in-memory results — so the run converges across worker
// deaths, torn journal tails, straggler cancellations, and even a prior
// coordinator's leftover directory.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		missing, maxGen, err := c.scanMissing()
		if err != nil {
			return nil, err
		}
		if len(missing) == 0 {
			break
		}
		c.stats.waves.Add(1)
		c.m.waves.Inc()
		// The wave's journal generation comes from the directory, not from a
		// loop counter: one past the highest generation already durable. A
		// rebuilt coordinator resuming a half-finished directory therefore
		// never reuses a crashed run's journal names — reusing one would
		// replace a file holding records scanMissing just counted as
		// complete.
		if err := c.runWave(ctx, maxGen+1, missing); err != nil {
			return nil, err
		}
	}
	mr, err := Merge(c.cfg.Dir, c.cfg.Epoch, c.cfg.Countries, c.cfg.Obs)
	if err != nil {
		return nil, err
	}
	return &Result{
		Corpus:       mr.Corpus,
		Disagreement: mr.Disagreement,
		Merge:        mr.Stats,
		Journals:     mr.Journals,
		Stats:        c.Stats(),
	}, nil
}

// scanMissing folds every journal currently in the directory (a private
// registry keeps repeated scans from inflating the user-visible merge
// counters) and returns, per shard, the jobs with no complete — non-lost —
// durable record, plus the highest journal generation present. The
// generation is taken from both shard headers and file names, so even a
// journal torn before its header survived pushes the next wave past it:
// this build's journals are born with their header whole, but such a
// file can still arrive from an older vantage or from hand damage, and it
// holds no durable records yet occupies its name. Only "*.journal" names
// are scanned, so the temp file a crash leaves while a journal is being
// born ("<name>.journal.tmp-*") is never read. A mid-file-corrupt or
// foreign journal in the directory fails the scan: the coordinator must
// not quietly crawl around evidence of corruption.
func (c *Coordinator) scanMissing() (map[int][]pipeline.SiteJob, int, error) {
	g := checkpoint.NewMerger(c.cfg.Epoch, c.cfg.Countries, &checkpoint.Options{Obs: obs.NewRegistry()})
	paths, err := filepath.Glob(filepath.Join(c.cfg.Dir, "*.journal"))
	if err != nil {
		return nil, 0, fmt.Errorf("fedcrawl: scanning %s: %w", c.cfg.Dir, err)
	}
	sort.Strings(paths)
	maxGen := 0
	for _, p := range paths {
		if n := genFromName(p); n > maxGen {
			maxGen = n
		}
		info, err := g.ReadJournal(p)
		if err != nil {
			return nil, 0, err
		}
		if info.Shard != nil && info.Shard.Gen > maxGen && info.Shard.Gen <= maxJournalGen {
			// Header generations get the same bound as file names: a forged
			// or insane Gen must not poison every future wave's numbering.
			maxGen = info.Shard.Gen
		}
	}
	complete := map[checkpoint.Key]bool{}
	for k, list := range g.Entries() {
		for _, e := range list {
			if !e.Entry.Outcome.Lost() {
				complete[k] = true
				break
			}
		}
	}
	missing := map[int][]pipeline.SiteJob{}
	for _, sh := range c.shards {
		for _, job := range sh.Jobs {
			if !complete[checkpoint.Key{Country: job.Country, Domain: job.Domain}] {
				missing[sh.ID] = append(missing[sh.ID], job)
			}
		}
	}
	return missing, maxGen, nil
}

// maxJournalGen bounds the generations the coordinator will believe, from
// file names and shard headers alike. Remote artifacts land in the journal
// directory, so both channels are attacker-adjacent: a hostile name like
// "w0-g9223372036854775807.journal" must not drive maxGen+1 into overflow
// (or into a range where every future wave's names are absurd).
const maxJournalGen = 1_000_000_000

// JournalName is the file name of worker's generation-gen shard journal in
// the coordinator's directory; genFromName is its inverse.
func JournalName(worker string, gen int) string {
	return fmt.Sprintf("%s-g%d.journal", worker, gen)
}

// genFromName extracts the generation from a JournalName-named shard
// journal ("<worker>-g<gen>.journal"); 0 when the name carries none or the
// suffix is not a plain bounded decimal. Parsing is deliberately stricter
// than strconv.Atoi: digits only (no sign, no spaces), at most nine of
// them, so hostile filenames are ignored rather than misparsed.
func genFromName(path string) int {
	base := strings.TrimSuffix(filepath.Base(path), ".journal")
	i := strings.LastIndex(base, "-g")
	if i < 0 {
		return 0
	}
	s := base[i+2:]
	// Nine digits keeps the value at most 999,999,999 — within
	// maxJournalGen and nowhere near integer overflow.
	if len(s) == 0 || len(s) > 9 {
		return 0
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// alive returns the workers still eligible for dispatch, in index order.
func (c *Coordinator) alive() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, w := range c.workers {
		if !c.dead[w] {
			out = append(out, w)
		}
	}
	return out
}

// killWorker marks a worker dead after its journal disarmed. Death is
// permanent: a worker that tore its journal mid-write gets no more shards.
func (c *Coordinator) killWorker(name string) {
	c.mu.Lock()
	already := c.dead[name]
	c.dead[name] = true
	c.mu.Unlock()
	if !already {
		c.stats.deaths.Add(1)
		c.m.deaths.Inc()
	}
}

// runWave assigns every still-missing shard across the surviving workers
// and runs them concurrently, each worker journaling into a fresh shard
// journal stamped with gen — a generation strictly newer than every
// journal already in the directory.
func (c *Coordinator) runWave(ctx context.Context, gen int, missing map[int][]pipeline.SiteJob) error {
	alive := c.alive()
	if len(alive) == 0 {
		return fmt.Errorf("fedcrawl: all %d workers dead with %d shards outstanding", c.cfg.Workers, len(missing))
	}
	ids := make([]int, 0, len(missing))
	for id := range missing {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	assign := map[string][]pipeline.SiteJob{}
	for _, id := range ids {
		if c.dispatched[id] > 0 {
			if !c.budgets[id].Take() {
				return fmt.Errorf("fedcrawl: shard %d (%s) exhausted its re-dispatch budget of %d with %d keys still incomplete",
					id, c.shards[id].Country, c.cfg.retries(), len(missing[id]))
			}
			c.stats.redispatches.Add(1)
			c.m.redispatches.Inc()
		}
		first := c.dispatched[id] == 0
		c.dispatched[id]++
		primary := alive[id%len(alive)]
		assign[primary] = append(assign[primary], missing[id]...)
		c.stats.dispatches.Add(1)
		c.m.dispatches.Inc()
		if first {
			// Replicas ride only on a shard's first dispatch: re-dispatch
			// exists to win keys back, not to multiply load.
			for r := 1; r <= c.cfg.Replicate && r < len(alive); r++ {
				rep := alive[(id+r)%len(alive)]
				assign[rep] = append(assign[rep], missing[id]...)
				c.stats.replicas.Add(1)
				c.m.replicas.Inc()
			}
		}
	}

	waveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var timedOut atomic.Bool
	if c.cfg.StragglerAfter > 0 {
		timer := time.AfterFunc(c.cfg.StragglerAfter, func() {
			timedOut.Store(true)
			cancel()
		})
		defer timer.Stop()
	}

	names := make([]string, 0, len(assign))
	for w := range assign {
		names = append(names, w)
	}
	sort.Strings(names)
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	interrupted := make([]bool, len(names))
	for i, w := range names {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			interrupted[i], errs[i] = c.runWorker(waveCtx, worker, gen, assign[worker])
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	cancelledWork := false
	for _, b := range interrupted {
		if b {
			cancelledWork = true
			break
		}
	}
	if timedOut.Load() && cancelledWork && ctx.Err() == nil {
		// The soft deadline fired while a worker still had jobs in flight:
		// whatever the cancelled workers left unfinished is simply still
		// missing at the next scan. A timer that fires in the window after
		// every worker already returned cancelled nothing and counts no
		// straggler.
		c.stats.stragglers.Add(1)
		c.m.stragglers.Inc()
	}
	return ctx.Err()
}

// ErrWorkerDead is the sentinel a Dispatch wraps to declare a worker
// permanently dead — its journal disarmed or could not be created, or a
// transport exhausted its retries, found the circuit open, or was handed a
// forged artifact. The coordinator kills the worker and forfeits its
// assignment to the survivors, never failing the federation outright.
var ErrWorkerDead = errors.New("fedcrawl: worker dead")

// runWorker hands one worker's wave assignment to Dispatch and reads the
// outcome: a nil return means the worker's journal landed durably in Dir
// (the next scan verifies that independently); ErrWorkerDead is permanent
// death, the assignment forfeited to the survivors; a context error is
// cancellation, where a detached transport delivery may still admit its
// artifact later; anything else fails the federation, because the worker
// saw evidence it could neither retry nor attribute to itself. The
// returned interrupted flag reports that the wave context — the straggler
// deadline or the caller — cut the crawl short.
func (c *Coordinator) runWorker(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) (interrupted bool, err error) {
	err = c.cfg.Dispatch(ctx, worker, gen, jobs)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, ErrWorkerDead):
		c.killWorker(worker)
		return false, nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ctx.Err() != nil, nil
	}
	return false, fmt.Errorf("fedcrawl: worker %s: %w", worker, err)
}

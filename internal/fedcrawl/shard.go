package fedcrawl

import (
	"context"
	"fmt"
	"path/filepath"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/pipeline"
)

// Assignment is one worker's share of one wave: crawl these jobs for this
// campaign and journal them under this shard identity. A remote vantage
// receives it signed as JSON, so the field tags are wire format.
type Assignment struct {
	Worker    string             `json:"worker"`
	Index     int                `json:"index"`
	Total     int                `json:"total"`
	Gen       int                `json:"gen"`
	Epoch     string             `json:"epoch"`
	Countries []string           `json:"countries"`
	Jobs      []pipeline.SiteJob `json:"jobs"`
}

// CrawlShard is the one worker job, run in process by Local and behind the
// wire by a remote vantage: it creates a's shard journal at path, installs
// it as live's checkpoint and crawls a's jobs. It returns in
// Config.Dispatch's contract:
//   - nil when the crawl finished and the journal closed;
//   - an error wrapping ErrWorkerDead when the journal could not be
//     created or disarmed mid-crawl — a torn write, a dead disk, an
//     injected kill — with whatever prefix was durable left at path. The
//     disarm cancels the crawl, and it wins over the caller's
//     cancellation;
//   - ctx.Err() when the caller cancelled;
//   - any other crawl error, or the journal's Close error.
//
// opts supplies the journal's registry (which live also adopts when it
// has none) and, for fault injection, its WrapWriter; CrawlShard sets its
// own OnDisarm.
func CrawlShard(ctx context.Context, path string, a Assignment, live *pipeline.Live, opts *checkpoint.Options) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var o checkpoint.Options
	if opts != nil {
		o = *opts
	}
	o.OnDisarm = func(error) { cancel() }
	sh := &checkpoint.ShardInfo{Worker: a.Worker, Index: a.Index, Total: a.Total, Gen: a.Gen}
	j, err := checkpoint.CreateShard(path, a.Epoch, a.Countries, sh, &o)
	if err != nil {
		return fmt.Errorf("fedcrawl: worker %s: creating its journal: %v: %w", a.Worker, err, ErrWorkerDead)
	}
	if live.Obs == nil {
		live.Obs = o.Obs
	}
	live.Checkpoint = j
	_, _, crawlErr := live.CrawlJobs(cctx, a.Epoch, a.Countries, a.Jobs)
	closeErr := j.Close()
	switch {
	case j.Err() != nil:
		return fmt.Errorf("fedcrawl: worker %s: journal disarmed: %v: %w", a.Worker, j.Err(), ErrWorkerDead)
	case ctx.Err() != nil:
		return ctx.Err()
	case crawlErr != nil:
		return crawlErr
	}
	return closeErr
}

// Local is the in-process Dispatch: each assignment runs through
// CrawlShard on a crawler from newLive, journaling straight into
// cfg.Dir under JournalName. There is no scratch file to rename, so a
// crawl interrupted mid-wave leaves each worker's durable prefix where the
// next scan finds it.
func Local(cfg Config, newLive func(worker string) *pipeline.Live) func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
	return local(cfg, newLive, func(Assignment) *checkpoint.Options {
		return &checkpoint.Options{Obs: cfg.reg()}
	})
}

// local is Local with the journal options chosen per assignment, the
// seam fault tests use to wrap one (worker, gen) journal's writer.
func local(cfg Config, newLive func(worker string) *pipeline.Live, opts func(Assignment) *checkpoint.Options) func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
	index := make(map[string]int, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		index[workerName(i)] = i
	}
	return func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
		a := Assignment{
			Worker: worker, Index: index[worker], Total: cfg.Workers, Gen: gen,
			Epoch: cfg.Epoch, Countries: cfg.Countries, Jobs: jobs,
		}
		return CrawlShard(ctx, filepath.Join(cfg.Dir, JournalName(worker, gen)), a, newLive(worker), opts(a))
	}
}

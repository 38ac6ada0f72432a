// Package checkpoint gives long-running live crawls crash safety: an
// append-only journal of completed per-site probe results that a resumed
// crawl replays to skip finished work, so a campaign killed mid-flight
// converges to the exact corpus a single uninterrupted run produces.
//
// # Journal format
//
// A journal file starts with an 8-byte magic ("WDEPCKP1") followed by
// records, each one frame of internal/framing (u32le payload length,
// u32le CRC32, payload).
//
// The first record is a versioned JSON header carrying the crawl's epoch
// and country set; every later record is one completed site keyed by
// (country, domain) and carrying the full dataset.Website plus its
// dataset.SiteOutcome. A journal is born whole: Create writes the magic
// and header through WriteFileAtomic, as a compaction writes a whole
// journal, and only then opens the file for appending. The append path
// carries site records only, one Write call each, so a crash tears at
// most the final record.
//
// # Recovery semantics
//
// On resume, a truncated or checksum-corrupt FINAL record is a torn tail —
// the expected residue of a crash mid-append — and is silently dropped
// (the journal is compacted to a clean file, counted in the truncations
// stat). A checksum failure anywhere BEFORE the last record is hard
// corruption: discarding it would also discard the good records after it,
// so Resume refuses with a *CorruptError naming the byte offset. This
// build never leaves a journal torn before its header, but an older
// build's crash or hand damage can; such a file (or an empty one) is
// still tolerated and resumes as a fresh journal, rewritten whole like
// any compaction: nothing was durably recorded, so nothing can be
// skipped.
//
// # Degradation
//
// A write or fsync error mid-crawl disarms checkpointing: the crawl keeps
// going, later appends are dropped, the "checkpoint.armed" gauge falls to
// zero, and Err reports the failure so the caller can warn that the
// journal is incomplete. Losing the checkpoint disk must cost the
// campaign its restartability, never its results.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
)

// Version is the journal header version this package writes and accepts.
const Version = 1

// magic identifies a checkpoint journal; the trailing digit is the frame
// format generation, bumped only if the framing itself (not the header)
// ever changes incompatibly.
var magic = []byte("WDEPCKP1")

// maxRecordBytes bounds a single record's payload, written or read. Appends
// never approach it (a site record is a few hundred bytes); recovery uses
// it to tell a garbage length prefix from a legitimate frame.
const maxRecordBytes = 1 << 26

// WriteSyncer is the journal's underlying write target: an *os.File in
// production, wrappable (Options.WrapWriter) for fault injection.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// Options tunes a journal; the zero value (or nil) is production defaults.
// Durability is not tunable: every record is fsynced as it is appended.
type Options struct {
	// Obs selects the metrics registry; nil means obs.Default().
	Obs *obs.Registry
	// OnDisarm, when non-nil, is called exactly once — outside the
	// journal's lock — if checkpointing disarms after a write failure.
	OnDisarm func(error)
	// WrapWriter, when non-nil, wraps the journal's append-path writer,
	// which carries site records only: the header is written whole before
	// the wrapper sees a byte, so a kill point's write count counts
	// records. It exists for fault injection (e.g. faultinject.KillWriter
	// crashes the stream at an exact byte); production leaves it nil.
	WrapWriter func(WriteSyncer) WriteSyncer
}

// Key identifies one journaled site.
type Key struct {
	Country, Domain string
}

// Entry is one journaled site result.
type Entry struct {
	Site    dataset.Website
	Outcome dataset.SiteOutcome
}

// Stats is the journal's own accounting, kept independently of the obs
// registry so tests can cross-check the two channels exactly.
type Stats struct {
	// RecordsWritten counts site records durably appended this process.
	RecordsWritten int64
	// RecordsReplayed counts site records read back by Resume, including
	// ones later superseded by a duplicate key.
	RecordsReplayed int64
	// SitesSkipped counts Reuse hits: sites the crawl did not re-probe.
	SitesSkipped int64
	// SitesReprobed counts Reuse misses: sites probed live under
	// checkpointing (on a fresh journal, every site).
	SitesReprobed int64
	// Truncations counts torn-tail recoveries (at most one per Resume).
	Truncations int64
	// WriteErrors counts append-path failures; the first one disarms.
	WriteErrors int64
	// Compactions counts atomic journal rewrites.
	Compactions int64
	// Fsyncs counts append-path fsyncs.
	Fsyncs int64

	// The Merge* fields are a Merger's accounting; a Journal leaves them
	// zero. Refused partial journals must be observable: a federated merge
	// that silently skipped an unreadable shard would present a partial
	// corpus as complete.

	// MergeJournals counts partial journals a Merger accepted.
	MergeJournals int64
	// MergeRecords counts site records folded in across accepted journals,
	// including entries later superseded by a newer generation.
	MergeRecords int64
	// MergeRefusalsForeign counts partial journals refused at merge time
	// for belonging to another campaign: wrong epoch, country set, or
	// journal version.
	MergeRefusalsForeign int64
	// MergeRefusalsCorrupt counts partial journals refused at merge time
	// for mid-file corruption (a torn FINAL record is tolerated — it is the
	// expected residue of a worker crash — but corruption with good records
	// after it is not).
	MergeRefusalsCorrupt int64
}

// CorruptError reports unrecoverable journal corruption: a record that
// fails its checksum (or cannot decode) with good records after it, where
// truncating would silently discard completed work.
type CorruptError = framing.CorruptError

// ShardInfo identifies one federated worker's partial journal: which
// vantage wrote it, its place in the federation, and the dispatch
// generation (re-dispatch waves increment it). A journal carrying a
// ShardInfo is one worker's slice of a sharded crawl — it must be merged
// with its sibling shards, never resumed as a whole-crawl journal.
type ShardInfo struct {
	// Worker is the vantage/worker identifier (e.g. "w2").
	Worker string `json:"worker"`
	// Index is the worker's 0-based index in the federation.
	Index int `json:"index"`
	// Total is how many workers the federation was configured with.
	Total int `json:"total"`
	// Gen is the 1-based dispatch generation this journal belongs to;
	// shard re-assignment after a worker failure starts a new generation.
	Gen int `json:"gen"`
}

func (s *ShardInfo) String() string {
	return fmt.Sprintf("worker %q (%d/%d, gen %d)", s.Worker, s.Index+1, s.Total, s.Gen)
}

// header is the journal's first record. Shard is nil for a whole-crawl
// journal; pre-shard journals decode with Shard nil, so they stay
// resumable by this build.
type header struct {
	Version   int        `json:"version"`
	Epoch     string     `json:"epoch"`
	Countries []string   `json:"countries"`
	Shard     *ShardInfo `json:"shard,omitempty"`
}

// siteRecord is the wire form of one journaled site.
type siteRecord struct {
	Country string              `json:"country"`
	Site    dataset.Website     `json:"site"`
	Outcome dataset.SiteOutcome `json:"outcome"`
}

// journalMetrics are the hoisted obs instruments, dual-recording the same
// events as Stats.
type journalMetrics struct {
	recordsWritten  *obs.Counter
	recordsReplayed *obs.Counter
	sitesSkipped    *obs.Counter
	sitesReprobed   *obs.Counter
	truncations     *obs.Counter
	writeErrors     *obs.Counter
	compactions     *obs.Counter
	armed           *obs.Gauge
	fsyncMS         *obs.Histogram

	mergeJournals        *obs.Counter
	mergeRecords         *obs.Counter
	mergeRefusalsForeign *obs.Counter
	mergeRefusalsCorrupt *obs.Counter
}

func newJournalMetrics(r *obs.Registry) *journalMetrics {
	if r == nil {
		r = obs.Default()
	}
	return &journalMetrics{
		recordsWritten:  r.Counter("checkpoint.records_written"),
		recordsReplayed: r.Counter("checkpoint.records_replayed"),
		sitesSkipped:    r.Counter("checkpoint.sites_skipped"),
		sitesReprobed:   r.Counter("checkpoint.sites_reprobed"),
		truncations:     r.Counter("checkpoint.truncations"),
		writeErrors:     r.Counter("checkpoint.write_errors"),
		compactions:     r.Counter("checkpoint.compactions"),
		armed:           r.Gauge("checkpoint.armed"),
		fsyncMS:         r.Timing("checkpoint.fsync_ms"),

		mergeJournals:        r.Counter("checkpoint.merge_journals"),
		mergeRecords:         r.Counter("checkpoint.merge_records"),
		mergeRefusalsForeign: r.Counter("checkpoint.merge_refusals_foreign"),
		mergeRefusalsCorrupt: r.Counter("checkpoint.merge_refusals_corrupt"),
	}
}

// Journal is a crash-safe record of completed site probes. One journal
// serves one crawl; Append and Reuse are safe for concurrent use by the
// crawl's workers.
type Journal struct {
	path      string
	epoch     string
	countries []string   // sorted copy
	shard     *ShardInfo // nil for a whole-crawl journal
	onDisarm  func(error)
	wrap      func(WriteSyncer) WriteSyncer
	m         *journalMetrics

	// replay is the resume-time map, frozen before the crawl starts, so
	// Reuse reads it without locking.
	replay map[Key]Entry

	mu        sync.Mutex
	f         *os.File
	w         WriteSyncer
	armed     bool
	disarmErr error
	disarmed  bool // OnDisarm already delivered

	stats struct {
		recordsWritten  atomic.Int64
		recordsReplayed atomic.Int64
		sitesSkipped    atomic.Int64
		sitesReprobed   atomic.Int64
		truncations     atomic.Int64
		writeErrors     atomic.Int64
		compactions     atomic.Int64
		fsyncs          atomic.Int64
	}
}

func newJournal(path, epoch string, countries []string, opts *Options) (*Journal, error) {
	if epoch == "" {
		return nil, fmt.Errorf("checkpoint: journal needs a non-empty epoch")
	}
	if len(countries) == 0 {
		return nil, fmt.Errorf("checkpoint: journal needs a non-empty country set")
	}
	if opts == nil {
		opts = &Options{}
	}
	j := &Journal{
		path:      path,
		epoch:     epoch,
		countries: sortedCopy(countries),
		onDisarm:  opts.OnDisarm,
		wrap:      opts.WrapWriter,
		m:         newJournalMetrics(opts.Obs),
		replay:    map[Key]Entry{},
	}
	return j, nil
}

// open attaches the journal to its complete file for appending, applying
// the fault-injection wrapper to the append path.
func (j *Journal) open() error {
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	j.f = f
	j.w = WriteSyncer(f)
	if j.wrap != nil {
		j.w = j.wrap(j.w)
	}
	j.armed = true
	j.m.armed.Set(1)
	return nil
}

// Create starts a fresh journal for the crawl, replacing any existing
// file at path. The magic and header are written whole through
// WriteFileAtomic (temp, fsync, rename, directory fsync) before the file
// is opened for appending, so Create returns either an error or an armed
// journal whose file already holds its complete header. The append path
// (and Options.WrapWriter) sees only the site records, so a kill point's
// write count is a record count.
func Create(path, epoch string, countries []string, opts *Options) (*Journal, error) {
	return create(path, epoch, countries, nil, opts)
}

// CreateShard starts a fresh partial journal for one federated worker's
// dispatch: the header carries the shard descriptor, marking the file as
// one vantage's slice of a sharded crawl. A shard journal is refused by
// Resume — its completion story is the merge step, not a single-process
// resume.
func CreateShard(path, epoch string, countries []string, shard *ShardInfo, opts *Options) (*Journal, error) {
	if shard == nil {
		return nil, fmt.Errorf("checkpoint: CreateShard needs a shard descriptor")
	}
	if shard.Worker == "" || shard.Total <= 0 || shard.Index < 0 || shard.Index >= shard.Total {
		return nil, fmt.Errorf("checkpoint: invalid shard descriptor %+v", *shard)
	}
	sh := *shard
	return create(path, epoch, countries, &sh, opts)
}

func create(path, epoch string, countries []string, shard *ShardInfo, opts *Options) (*Journal, error) {
	j, err := newJournal(path, epoch, countries, opts)
	if err != nil {
		return nil, err
	}
	j.shard = shard
	if err := writeJournalFile(path, j.headerRecord(), nil); err != nil {
		return nil, err
	}
	if err := j.open(); err != nil {
		return nil, err
	}
	return j, nil
}

// Resume reads an existing journal, validates the header against the
// crawl's epoch and country set, and loads the replay map. A journal
// recorded for a different epoch or country set is an error — results
// from another campaign must never merge silently. A missing or torn
// header, a torn tail and superseded duplicates are all healed by one
// atomic rewrite (counted as a compaction) before the journal is opened
// for appending; a journal torn before its header survived resumes as a
// fresh journal.
func Resume(path, epoch string, countries []string, opts *Options) (*Journal, error) {
	j, err := newJournal(path, epoch, countries, opts)
	if err != nil {
		return nil, err
	}
	sawHeader := false // false when the header itself was torn or absent
	dupes := false
	info, err := StreamSites(path,
		func(h JournalInfo) error {
			sawHeader = true
			// Version first: a journal another format version wrote is
			// refused before any of its records is decoded as this build's.
			if h.Version != Version {
				return fmt.Errorf("checkpoint: journal version %d, this build reads version %d", h.Version, Version)
			}
			if h.Shard != nil {
				// A federated shard journal holds one vantage's slice of the
				// crawl; resuming it as if it were the whole campaign would
				// silently skip every other worker's sites. Merge it instead.
				return fmt.Errorf("checkpoint: %s is a federated shard journal (%s); merge it with its sibling shards instead of resuming it",
					path, h.Shard)
			}
			return matches(h.Epoch, h.Countries, epoch, countries)
		},
		func(country string, site dataset.Website, outcome dataset.SiteOutcome) error {
			k := Key{Country: country, Domain: site.Domain}
			if _, ok := j.replay[k]; ok {
				dupes = true
			}
			j.replay[k] = Entry{Site: site, Outcome: outcome}
			return nil
		})
	if err != nil {
		return nil, err
	}
	j.stats.recordsReplayed.Add(info.Sites)
	j.m.recordsReplayed.Add(info.Sites)
	if info.Truncated {
		j.stats.truncations.Add(1)
		j.m.truncations.Inc()
	}
	if !sawHeader || info.Truncated || dupes {
		// A missing or torn header, a torn tail and superseded duplicates
		// all heal the same way: atomically rewrite the journal from what
		// survived, so no half-recovered file is ever exposed.
		if err := writeJournalFile(path, j.headerRecord(), j.replay); err != nil {
			return nil, fmt.Errorf("checkpoint: compacting recovered journal: %w", err)
		}
		j.stats.compactions.Add(1)
		j.m.compactions.Inc()
	}
	if err := j.open(); err != nil {
		return nil, err
	}
	return j, nil
}

// Shard returns the journal's shard descriptor, or nil for a whole-crawl
// journal.
func (j *Journal) Shard() *ShardInfo {
	if j.shard == nil {
		return nil
	}
	sh := *j.shard
	return &sh
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// ReplayedSites returns how many distinct sites the resume loaded.
func (j *Journal) ReplayedSites() int { return len(j.replay) }

// Matches reports whether the journal belongs to the given crawl: same
// epoch, same country set. CrawlCorpus refuses a mismatched journal.
func (j *Journal) Matches(epoch string, countries []string) error {
	return matches(j.epoch, j.countries, epoch, countries)
}

func matches(haveEpoch string, haveCCs []string, wantEpoch string, wantCCs []string) error {
	if haveEpoch != wantEpoch {
		return fmt.Errorf("checkpoint: journal epoch %q does not match crawl epoch %q", haveEpoch, wantEpoch)
	}
	have, want := sortedCopy(haveCCs), sortedCopy(wantCCs)
	if len(have) != len(want) {
		return fmt.Errorf("checkpoint: journal countries %v do not match crawl countries %v", have, want)
	}
	for i := range have {
		if have[i] != want[i] {
			return fmt.Errorf("checkpoint: journal countries %v do not match crawl countries %v", have, want)
		}
	}
	return nil
}

// Reuse returns the journaled result for (country, domain) when one exists
// and is complete — no field lost to a transient failure. A journaled
// record that carries loss is deliberately not reused: resume is the
// moment to win back probes the first run's retry budget could not, so
// the crawl re-probes it and the fresh append supersedes the old record.
// Every call is counted (skipped or re-probed), giving resume its
// accounting.
func (j *Journal) Reuse(country, domain string) (dataset.Website, dataset.SiteOutcome, bool) {
	e, ok := j.replay[Key{Country: country, Domain: domain}]
	if ok && !e.Outcome.Lost() {
		j.stats.sitesSkipped.Add(1)
		j.m.sitesSkipped.Inc()
		return e.Site, e.Outcome, true
	}
	j.stats.sitesReprobed.Add(1)
	j.m.sitesReprobed.Inc()
	return dataset.Website{}, dataset.SiteOutcome{}, false
}

// Append journals one completed site. Each record is a single Write
// followed by an fsync, so a crash tears at most the final record and
// loses no record Append returned from. Failures never surface to the
// crawl: the journal disarms, drops later appends, and reports through Err.
func (j *Journal) Append(country string, site dataset.Website, outcome dataset.SiteOutcome) {
	rec, err := json.Marshal(siteRecord{Country: country, Site: site, Outcome: outcome})
	if err == nil {
		rec, err = record(rec)
	}
	if err != nil {
		// A Website is plain data far below the record bound; this cannot
		// fail absent a programming error, and the journal's contract is to
		// never fail the crawl.
		j.disarm(fmt.Errorf("checkpoint: encoding record: %w", err))
		return
	}

	j.mu.Lock()
	if !j.armed {
		j.mu.Unlock()
		return
	}
	_, werr := j.w.Write(rec)
	if werr == nil {
		werr = j.syncLocked()
	}
	if werr != nil {
		j.failLocked(fmt.Errorf("checkpoint: appending record: %w", werr))
		cb, cberr := j.takeDisarmLocked()
		j.mu.Unlock()
		if cb != nil {
			cb(cberr)
		}
		return
	}
	j.mu.Unlock()
	j.stats.recordsWritten.Add(1)
	j.m.recordsWritten.Inc()
}

// Err returns the error that disarmed checkpointing, or nil while the
// journal is healthy. A non-nil Err after a crawl means the journal is
// incomplete and the run should be flagged non-restartable.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.disarmErr
}

// Armed reports whether the journal is still accepting appends.
func (j *Journal) Armed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.armed
}

// Stats snapshots the journal's own accounting.
func (j *Journal) Stats() Stats {
	return Stats{
		RecordsWritten:  j.stats.recordsWritten.Load(),
		RecordsReplayed: j.stats.recordsReplayed.Load(),
		SitesSkipped:    j.stats.sitesSkipped.Load(),
		SitesReprobed:   j.stats.sitesReprobed.Load(),
		Truncations:     j.stats.truncations.Load(),
		WriteErrors:     j.stats.writeErrors.Load(),
		Compactions:     j.stats.compactions.Load(),
		Fsyncs:          j.stats.fsyncs.Load(),
	}
}

// Close releases the file. It does not fsync: every record was synced as
// it was appended.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	j.armed = false
	return err
}

// disarm records a failure from outside the locked paths.
func (j *Journal) disarm(err error) {
	j.mu.Lock()
	j.failLocked(err)
	cb, cberr := j.takeDisarmLocked()
	j.mu.Unlock()
	if cb != nil {
		cb(cberr)
	}
}

// failLocked flips the journal into the disarmed state. Callers must hold
// j.mu and afterwards deliver the OnDisarm callback via takeDisarmLocked
// outside the lock.
func (j *Journal) failLocked(err error) {
	j.stats.writeErrors.Add(1)
	j.m.writeErrors.Inc()
	if !j.armed {
		return
	}
	j.armed = false
	j.disarmErr = err
	j.m.armed.Set(0)
}

// takeDisarmLocked returns the OnDisarm callback exactly once after the
// journal disarms, for delivery outside the lock.
func (j *Journal) takeDisarmLocked() (func(error), error) {
	if j.armed || j.disarmed || j.disarmErr == nil || j.onDisarm == nil {
		return nil, nil
	}
	j.disarmed = true
	return j.onDisarm, j.disarmErr
}

// syncLocked fsyncs the append path, timing it into checkpoint.fsync_ms.
func (j *Journal) syncLocked() error {
	sp := obs.StartSpan(j.m.fsyncMS)
	err := j.w.Sync()
	sp.End()
	if err != nil {
		return err
	}
	// The obs-side fsync count is the histogram's own observation count;
	// the journal keeps its own tally for the cross-check.
	j.stats.fsyncs.Add(1)
	return nil
}

func (j *Journal) headerRecord() header {
	return header{Version: Version, Epoch: j.epoch, Countries: j.countries, Shard: j.shard}
}

// writeJournalFile writes a complete journal (magic, header, one record
// per entry in sorted key order) atomically at path.
func writeJournalFile(path string, hdr header, entries map[Key]Entry) error {
	keys := make([]Key, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Country != keys[b].Country {
			return keys[a].Country < keys[b].Country
		}
		return keys[a].Domain < keys[b].Domain
	})
	return WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(magic); err != nil {
			return err
		}
		payload, err := json.Marshal(hdr)
		if err != nil {
			return err
		}
		if _, err := framing.Write(w, maxRecordBytes, payload); err != nil {
			return err
		}
		for _, k := range keys {
			e := entries[k]
			payload, err := json.Marshal(siteRecord{Country: k.Country, Site: e.Site, Outcome: e.Outcome})
			if err != nil {
				return err
			}
			if _, err := framing.Write(w, maxRecordBytes, payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// record frames one payload as a single byte slice, so the append path can
// issue it as one Write.
func record(payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(framing.HeaderSize + len(payload))
	if _, err := framing.Write(&buf, maxRecordBytes, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

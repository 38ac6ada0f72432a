package checkpoint

import (
	"fmt"
	"sync/atomic"

	"github.com/webdep/webdep/internal/dataset"
)

// MergeSource identifies which partial journal a merged entry came from.
type MergeSource struct {
	// Path is the journal file the entry was read from.
	Path string
	// Shard is the journal's shard descriptor; nil when the journal was an
	// unsharded whole-crawl journal folded into a merge.
	Shard *ShardInfo
}

// Worker returns the source's worker identifier: the shard descriptor's
// worker for a federated journal, the file path otherwise — enough to tell
// two vantages apart when counting overlapping probes.
func (s MergeSource) Worker() string {
	if s.Shard != nil {
		return s.Shard.Worker
	}
	return s.Path
}

// MergeEntry is one vantage's journaled result for a key.
type MergeEntry struct {
	Source MergeSource
	Entry  Entry
}

// Merger folds federated partial journals into one keyed entry set, with
// the validation and accounting a trustworthy merge needs: every journal's
// header must carry the merge's epoch, country set, and version; mid-file
// corruption is a hard *CorruptError; and every refusal is counted in
// Stats and the checkpoint.* obs registry, dual-recorded like the journal
// metrics. A torn FINAL record — the residue of a worker killed
// mid-append — is tolerated and counted as a truncation, exactly as
// Resume tolerates it.
//
// The Merger keeps every vantage's entry per key (rather than collapsing
// to one) so the consumer can both pick a deterministic winner and measure
// cross-vantage disagreement on overlapping probes.
type Merger struct {
	epoch     string
	countries []string
	adopt     bool // epoch/countries adopted from the first readable header
	m         *journalMetrics

	entries map[Key][]MergeEntry

	stats struct {
		journals        atomic.Int64
		records         atomic.Int64
		truncations     atomic.Int64
		refusalsForeign atomic.Int64
		refusalsCorrupt atomic.Int64
	}
}

// NewMerger starts a merge expecting the given epoch and country set. An
// empty epoch adopts the first readable journal's header as the
// expectation — the CLI merge path, where the campaign identity lives only
// in the journals themselves.
func NewMerger(epoch string, countries []string, opts *Options) *Merger {
	if opts == nil {
		opts = &Options{}
	}
	return &Merger{
		epoch:     epoch,
		countries: sortedCopy(countries),
		adopt:     epoch == "",
		m:         newJournalMetrics(opts.Obs),
		entries:   map[Key][]MergeEntry{},
	}
}

// Epoch returns the epoch the merge is validating against ("" until the
// first journal is adopted in CLI mode).
func (g *Merger) Epoch() string { return g.epoch }

// Countries returns the merge's country set, sorted.
func (g *Merger) Countries() []string { return append([]string(nil), g.countries...) }

// ReadJournal streams one partial journal into the merge. The journal must
// belong to this campaign: a foreign epoch, country set, or version is
// refused with a *CorruptError (counted in MergeRefusalsForeign), and
// mid-file corruption propagates StreamSites' *CorruptError (counted in
// MergeRefusalsCorrupt). Either refusal leaves the merge's accumulated
// entries untouched only up to the records already delivered — callers
// must treat any error as fatal to the whole merge, never as "skip this
// shard": a merge missing one shard is a silently partial corpus.
//
// A journal torn before its header survived contributes nothing and is
// accepted (nothing was durably recorded, so nothing is missing from it).
func (g *Merger) ReadJournal(path string) (*JournalInfo, error) {
	foreign := false
	// refuse rejects the journal on its header, the record after the magic.
	refuse := func(format string, args ...any) error {
		foreign = true
		return &CorruptError{Path: path, Offset: int64(len(magic)), Reason: fmt.Sprintf(format, args...)}
	}
	var src MergeSource
	info, err := StreamSites(path,
		func(info JournalInfo) error {
			if info.Version != Version {
				return refuse("journal version %d, this build merges version %d", info.Version, Version)
			}
			if g.adopt && g.epoch == "" {
				g.epoch = info.Epoch
				g.countries = sortedCopy(info.Countries)
			}
			if merr := matches(info.Epoch, info.Countries, g.epoch, g.countries); merr != nil {
				return refuse("foreign partial journal: %v", merr)
			}
			src = MergeSource{Path: path, Shard: info.Shard}
			return nil
		},
		func(country string, site dataset.Website, outcome dataset.SiteOutcome) error {
			g.fold(src, country, site, outcome)
			return nil
		})
	if err != nil {
		if foreign {
			g.stats.refusalsForeign.Add(1)
			g.m.mergeRefusalsForeign.Inc()
		} else {
			g.stats.refusalsCorrupt.Add(1)
			g.m.mergeRefusalsCorrupt.Inc()
		}
		return nil, err
	}
	if info.Truncated {
		g.stats.truncations.Add(1)
		g.m.truncations.Inc()
	}
	g.stats.journals.Add(1)
	g.m.mergeJournals.Inc()
	return info, nil
}

// fold records one site entry, superseding an earlier record for the same
// key from the SAME journal (an append after a re-probe, newest wins —
// the in-file analogue of Resume's duplicate handling) while keeping
// entries from other journals side by side for disagreement accounting.
func (g *Merger) fold(src MergeSource, country string, site dataset.Website, outcome dataset.SiteOutcome) {
	k := Key{Country: country, Domain: site.Domain}
	e := MergeEntry{Source: src, Entry: Entry{Site: site, Outcome: outcome}}
	list := g.entries[k]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Source.Path == src.Path {
			list[i] = e
			g.stats.records.Add(1)
			g.m.mergeRecords.Inc()
			return
		}
	}
	g.entries[k] = append(list, e)
	g.stats.records.Add(1)
	g.m.mergeRecords.Inc()
}

// Entries returns the accumulated per-key entry lists, one entry per
// contributing journal in read order. The map is the Merger's own — read
// it, don't mutate it.
func (g *Merger) Entries() map[Key][]MergeEntry { return g.entries }

// Stats snapshots the merge accounting in the same shape as a Journal's,
// with the journal-only fields zero.
func (g *Merger) Stats() Stats {
	return Stats{
		Truncations:          g.stats.truncations.Load(),
		MergeJournals:        g.stats.journals.Load(),
		MergeRecords:         g.stats.records.Load(),
		MergeRefusalsForeign: g.stats.refusalsForeign.Load(),
		MergeRefusalsCorrupt: g.stats.refusalsCorrupt.Load(),
	}
}

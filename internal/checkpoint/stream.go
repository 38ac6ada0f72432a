package checkpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
)

// JournalInfo describes a journal as the walker found it.
type JournalInfo struct {
	// Version, Epoch, and Countries come from the journal header. They are
	// zero when no header survived (empty or header-torn journal).
	Version   int
	Epoch     string
	Countries []string
	// Shard is the federated shard descriptor from the header, nil for a
	// whole-crawl journal (including every pre-shard journal).
	Shard *ShardInfo
	// Truncated reports that a torn tail (the residue of a crash
	// mid-append) was dropped. The skipped bytes stay on disk — only Resume
	// rewrites the journal.
	Truncated bool
	// Sites counts the records delivered, including superseded duplicates.
	Sites int64
}

// StreamSites reads a journal's site records in file order without loading
// the journal into memory — for consumers (the federated Merger) that fold
// each record away instead of keeping a map of them.
//
// Recovery semantics are the journal's (see walk). Records are delivered as
// they are read, so onSite may run before a torn tail is discovered; a
// consumer building durable output should create it only after StreamSites
// returns.
//
// onHeader (optional) sees the decoded header before any site; onSite sees
// every site record in file order. An error from either callback aborts
// the stream and is returned verbatim.
func StreamSites(path string,
	onHeader func(JournalInfo) error,
	onSite func(country string, site dataset.Website, outcome dataset.SiteOutcome) error,
) (*JournalInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open journal for streaming: %w", err)
	}
	defer f.Close()
	return walkFile(f, onHeader, onSite)
}

// walkFile walks an open journal file from its current position.
func walkFile(f *os.File,
	onHeader func(JournalInfo) error,
	onSite func(country string, site dataset.Website, outcome dataset.SiteOutcome) error,
) (*JournalInfo, error) {
	fr, err := framing.NewFileReader(f, maxRecordBytes, framing.TolerateTornTail)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return walk(fr, onHeader, onSite)
}

// walk is the journal walker every reader goes through — Resume,
// InspectBytes, StreamSites and, over that, the Merger: the magic, the
// header record, then site records, from a tail-tolerant framing.Reader.
//
// Any well-formed prefix is delivered; a torn or checksum-corrupt FINAL
// record is dropped and flagged Truncated; damage before the last record,
// or a checksum-clean record that does not decode, is a *CorruptError with
// the record's byte offset; a journal torn before its header survived
// yields an info with no header and no sites, and onHeader is not called.
func walk(fr *framing.Reader,
	onHeader func(JournalInfo) error,
	onSite func(country string, site dataset.Website, outcome dataset.SiteOutcome) error,
) (*JournalInfo, error) {
	info := &JournalInfo{}
	err := fr.Magic(magic)
	for first := true; err == nil; first = false {
		var payload []byte
		var off int64
		if payload, off, err = fr.Next(); err != nil {
			break
		}
		if first {
			var h header
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fr.Corrupt(off, "undecodable header: %v", err)
			}
			info.Version = h.Version
			info.Epoch = h.Epoch
			info.Countries = sortedCopy(h.Countries)
			info.Shard = h.Shard
			if onHeader != nil {
				if err := onHeader(*info); err != nil {
					return nil, err
				}
			}
			continue
		}
		var rec siteRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fr.Corrupt(off, "undecodable record: %v", err)
		}
		info.Sites++
		if onSite != nil {
			if err := onSite(rec.Country, rec.Site, rec.Outcome); err != nil {
				return nil, err
			}
		}
	}
	if err != io.EOF {
		return nil, err
	}
	info.Truncated = fr.Torn()
	return info, nil
}

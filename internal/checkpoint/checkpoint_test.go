package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
)

var testCCs = []string{"CZ", "TH"}

func site(cc, domain string, rank int) dataset.Website {
	return dataset.Website{
		Domain: domain, Country: cc, Rank: rank,
		HostProvider: "Provider-" + domain, HostProviderCountry: "US",
		HostIP: "192.0.2.1", HostIPContinent: "NA",
		DNSProvider: "DNS-" + domain, DNSProviderCountry: "DE",
		CAOwner: "CA-" + domain, CAOwnerCountry: "US",
		TLD: "com", Language: "en",
	}
}

func okOutcome() dataset.SiteOutcome {
	return dataset.SiteOutcome{
		Host: dataset.StatusOK, NS: dataset.StatusOK,
		CA: dataset.StatusOK, Language: dataset.StatusOK,
	}
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "2023-05.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, "2023-05", []string{"TH", "CZ"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Domains exercise quoting-adjacent shapes: unicode and commas are
	// fine inside JSON payloads, but prove it.
	sites := []dataset.Website{
		site("TH", "a.example.com", 1),
		site("TH", "bücher.example", 2),
		site("CZ", "c,d.example", 1),
	}
	for _, s := range sites {
		j.Append(s.Country, s, okOutcome())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, "2023-05", []string{"CZ", "TH"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.ReplayedSites(); got != 3 {
		t.Fatalf("ReplayedSites = %d, want 3", got)
	}
	for _, s := range sites {
		got, o, ok := r.Reuse(s.Country, s.Domain)
		if !ok {
			t.Fatalf("Reuse(%s, %s) missed", s.Country, s.Domain)
		}
		if got != s {
			t.Errorf("replayed site differs:\n got  %+v\n want %+v", got, s)
		}
		if o != okOutcome() {
			t.Errorf("replayed outcome = %+v", o)
		}
	}
	if _, _, ok := r.Reuse("TH", "never-crawled.example"); ok {
		t.Error("Reuse hit for a site that was never journaled")
	}
	st := r.Stats()
	if st.RecordsReplayed != 3 || st.SitesSkipped != 3 || st.SitesReprobed != 1 {
		t.Errorf("stats = %+v, want 3 replayed / 3 skipped / 1 reprobed", st)
	}
	if st.Truncations != 0 || st.Compactions != 0 {
		t.Errorf("clean resume performed recovery work: %+v", st)
	}
}

func TestCreateRequiresEpochAndCountries(t *testing.T) {
	if _, err := Create(journalPath(t), "", testCCs, nil); err == nil {
		t.Error("empty epoch accepted")
	}
	if _, err := Create(journalPath(t), "2023-05", nil, nil); err == nil {
		t.Error("empty country set accepted")
	}
}

func TestResumeMissingFileErrors(t *testing.T) {
	if _, err := Resume(filepath.Join(t.TempDir(), "absent.journal"), "2023-05", testCCs, nil); err == nil {
		t.Fatal("resume of a nonexistent journal succeeded")
	}
}

// TestResumeRefusesForeignVersionOnHeader hand-frames a journal another
// format version wrote, whose one record does not decode as this build's
// siteRecord: Resume must refuse it on the header, naming both versions,
// before it reads (let alone replays) the record.
func TestResumeRefusesForeignVersionOnHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic)
	for _, payload := range []string{
		`{"version":99,"epoch":"2023-05","countries":["CZ","TH"]}`,
		`{"country":7,"site":{},"outcome":{}}`,
	} {
		if _, err := framing.Write(&buf, maxRecordBytes, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	path := journalPath(t)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Resume(path, "2023-05", testCCs, nil)
	if err == nil {
		t.Fatal("resumed a version-99 journal")
	}
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Fatalf("the record was decoded before the header was checked: %v", err)
	}
	for _, want := range []string{"version 99", fmt.Sprintf("version %d", Version)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
}

func TestResumeRejectsMismatchedEpochAndCountries(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	j.Close()

	if _, err := Resume(path, "2025-05", testCCs, nil); err == nil {
		t.Error("journal from epoch 2023-05 resumed as 2025-05")
	}
	if _, err := Resume(path, "2023-05", []string{"TH"}, nil); err == nil {
		t.Error("journal for [CZ TH] resumed for [TH]")
	}
	if _, err := Resume(path, "2023-05", []string{"CZ", "TH", "US"}, nil); err == nil {
		t.Error("journal for [CZ TH] resumed for [CZ TH US]")
	}
	// The same guard is exposed for crawl-time validation.
	j2, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Matches("2023-05", []string{"TH", "CZ"}); err != nil {
		t.Errorf("Matches rejected an order-permuted identical country set: %v", err)
	}
	if err := j2.Matches("2024-01", testCCs); err == nil {
		t.Error("Matches accepted a different epoch")
	}
}

// writeTorn truncates the journal file to its first n bytes, simulating a
// crash that tore the tail.
func writeTorn(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(data) {
		t.Fatalf("torn size %d beyond file size %d", n, len(data))
	}
	if err := os.WriteFile(path, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRecoversTornTailAtEveryByte(t *testing.T) {
	// Build a clean three-record journal once, then replay resume against
	// every possible torn length of the final record — from "record fully
	// missing" through every mid-record byte — plus tears inside the
	// header and magic. No length may crash or hard-error; the replayed
	// prefix must always be exactly the records before the tear.
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := []dataset.Website{
		site("TH", "a.example", 1),
		site("TH", "b.example", 2),
		site("CZ", "c.example", 1),
	}
	var offsets []int // byte offset after magic+header and after each record
	offsets = append(offsets, fileSize(t, path))
	for _, s := range sites {
		j.Append(s.Country, s, okOutcome())
		offsets = append(offsets, fileSize(t, path))
	}
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(clean); n++ {
		if err := os.WriteFile(path, clean[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Resume(path, "2023-05", testCCs, nil)
		if err != nil {
			t.Fatalf("tear at byte %d: resume failed: %v", n, err)
		}
		// Count how many whole records survive a tear at n.
		wantSites := 0
		for i := 1; i < len(offsets); i++ {
			if n >= offsets[i] {
				wantSites = i
			}
		}
		if n < offsets[0] {
			wantSites = 0 // inside magic/header: nothing usable
		}
		if got := r.ReplayedSites(); got != wantSites {
			t.Fatalf("tear at byte %d: replayed %d sites, want %d", n, got, wantSites)
		}
		st := r.Stats()
		if n < len(clean) && n > offsets[0] && !atBoundary(n, offsets) {
			if st.Truncations != 1 {
				t.Fatalf("tear at byte %d: truncations = %d, want 1", n, st.Truncations)
			}
		}
		// Whatever recovery did, the journal on disk must now be clean:
		// a second resume replays the same sites with no recovery work.
		if err := r.Close(); err != nil {
			t.Fatalf("tear at byte %d: close: %v", n, err)
		}
		r2, err := Resume(path, "2023-05", testCCs, nil)
		if err != nil {
			t.Fatalf("tear at byte %d: re-resume: %v", n, err)
		}
		if got := r2.ReplayedSites(); got != wantSites {
			t.Fatalf("tear at byte %d: re-resume replayed %d sites, want %d", n, got, wantSites)
		}
		if st2 := r2.Stats(); st2.Truncations != 0 {
			t.Fatalf("tear at byte %d: recovery left a dirty journal (%+v)", n, st2)
		}
		r2.Close()
	}
}

func atBoundary(n int, offsets []int) bool {
	for _, o := range offsets {
		if n == o {
			return true
		}
	}
	return false
}

func fileSize(t *testing.T, path string) int {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

func TestResumeMidFileCorruptionIsHardError(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := fileSize(t, path)
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	j.Append("TH", site("TH", "b.example", 2), okOutcome())
	j.Close()

	// Flip one payload byte inside the FIRST site record: a checksum
	// failure with a good record after it must refuse with the offset of
	// the corrupt record, not truncate away the good tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerEnd+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Resume(path, "2023-05", testCCs, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Offset != int64(headerEnd) {
		t.Errorf("corrupt offset = %d, want %d (start of the damaged record)", ce.Offset, headerEnd)
	}
}

func TestResumeRejectsForeignFile(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Resume(path, "2023-05", testCCs, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError for bad magic", err)
	}
}

func TestResumeEmptyFileStartsFresh(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ReplayedSites() != 0 || !j.Armed() {
		t.Fatalf("fresh resume: %d replayed, armed=%v", j.ReplayedSites(), j.Armed())
	}
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	j.Close()
	// The rewritten journal must now resume normally.
	r, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ReplayedSites() != 1 {
		t.Fatalf("replayed %d sites after fresh restart, want 1", r.ReplayedSites())
	}
}

func TestResumeRejectsFutureVersion(t *testing.T) {
	path := journalPath(t)
	hdr := header{Version: Version + 1, Epoch: "2023-05", Countries: testCCs}
	if err := writeJournalFile(path, hdr, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path, "2023-05", testCCs, nil); err == nil {
		t.Fatal("journal from a future version accepted")
	}
}

func TestReuseReprobesLostSites(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lost := okOutcome()
	lost.NS = dataset.StatusLost
	j.Append("TH", site("TH", "lost.example", 1), lost)
	j.Append("TH", site("TH", "ok.example", 2), okOutcome())
	j.Close()

	r, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, ok := r.Reuse("TH", "lost.example"); ok {
		t.Error("a record with transient loss was reused instead of re-probed")
	}
	if _, _, ok := r.Reuse("TH", "ok.example"); !ok {
		t.Error("a complete record was not reused")
	}
	// The re-probe's fresh append supersedes the lost record.
	r.Append("TH", site("TH", "lost.example", 1), okOutcome())
	r.Close()
	r2, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	// Resume is the one place a journal is rewritten: r2 found two records
	// for lost.example and compacted them to the newest.
	if got := r2.Stats().Compactions; got != 1 {
		t.Errorf("compactions = %d, want 1", got)
	}
	if _, o, ok := r2.Reuse("TH", "lost.example"); !ok || o != okOutcome() {
		t.Errorf("superseding append lost: ok=%v outcome=%+v", ok, o)
	}
}

func TestResumeDedupesSupersededRecords(t *testing.T) {
	// Append two generations of the same site without compacting: resume
	// must keep the newest and compact the journal back to one record.
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	lost := okOutcome()
	lost.CA = dataset.StatusLost
	j.Append("TH", site("TH", "dup.example", 1), lost)
	j.Append("TH", site("TH", "dup.example", 1), okOutcome())
	j.Close()

	r, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.RecordsReplayed != 2 || st.Compactions != 1 {
		t.Errorf("stats = %+v, want 2 records replayed and 1 compaction", st)
	}
	if r.ReplayedSites() != 1 {
		t.Errorf("ReplayedSites = %d, want 1 after dedup", r.ReplayedSites())
	}
	if _, o, ok := r.Reuse("TH", "dup.example"); !ok || o != okOutcome() {
		t.Errorf("last write did not win: ok=%v outcome=%+v", ok, o)
	}
	r.Close()
}

func TestJournalDisarmsOnWriteErrorAndCrawlContinues(t *testing.T) {
	path := journalPath(t)
	var disarmErr error
	disarms := 0
	opts := &Options{
		OnDisarm: func(err error) { disarms++; disarmErr = err },
		WrapWriter: func(w WriteSyncer) WriteSyncer {
			// Kill after magic + header + one record.
			return faultinject.NewKillWriter(w, 3, 0, nil)
		},
	}
	j, err := Create(path, "2023-05", testCCs, opts)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	if !j.Armed() {
		t.Fatal("journal disarmed before the injected failure")
	}
	// This append hits the dead disk: the journal must disarm, not panic
	// or surface an error to the crawl.
	j.Append("TH", site("TH", "b.example", 2), okOutcome())
	if j.Armed() {
		t.Fatal("journal still armed after a write failure")
	}
	if j.Err() == nil || !errors.Is(j.Err(), faultinject.ErrKilled) {
		t.Fatalf("Err() = %v, want the injected failure", j.Err())
	}
	if disarms != 1 || !errors.Is(disarmErr, faultinject.ErrKilled) {
		t.Fatalf("OnDisarm fired %d times with %v, want once with ErrKilled", disarms, disarmErr)
	}
	// Later appends are silently dropped.
	j.Append("TH", site("TH", "c.example", 3), okOutcome())
	st := j.Stats()
	if st.RecordsWritten != 1 || st.WriteErrors != 1 {
		t.Errorf("stats = %+v, want 1 written / 1 write error", st)
	}
	j.Close()

	// The journal on disk holds exactly the records before the failure.
	r, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ReplayedSites() != 1 {
		t.Errorf("replayed %d sites, want the 1 written before the disk died", r.ReplayedSites())
	}
}

func TestObsCountersMatchJournalStats(t *testing.T) {
	// Every obs instrument must agree exactly with the journal's own
	// accounting, in the style of the resilience cross-checks.
	reg := obs.NewRegistry()
	path := journalPath(t)
	j, err := Create(path, "2023-05", testCCs, &Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	lost := okOutcome()
	lost.Host = dataset.StatusLost
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	j.Append("TH", site("TH", "b.example", 2), lost)
	j.Close()
	// Tear the tail so resume performs a truncation + compaction.
	writeTorn(t, path, fileSize(t, path)-3)

	reg2 := obs.NewRegistry()
	r, err := Resume(path, "2023-05", testCCs, &Options{Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	r.Reuse("TH", "a.example") // skip
	r.Reuse("TH", "missing.example")
	r.Append("TH", site("TH", "missing.example", 3), okOutcome())
	r.Close()

	for _, phase := range []struct {
		name string
		reg  *obs.Registry
		st   Stats
	}{
		{"create", reg, j.Stats()},
		{"resume", reg2, r.Stats()},
	} {
		counters := map[string]int64{
			"checkpoint.records_written":  phase.st.RecordsWritten,
			"checkpoint.records_replayed": phase.st.RecordsReplayed,
			"checkpoint.sites_skipped":    phase.st.SitesSkipped,
			"checkpoint.sites_reprobed":   phase.st.SitesReprobed,
			"checkpoint.truncations":      phase.st.Truncations,
			"checkpoint.write_errors":     phase.st.WriteErrors,
			"checkpoint.compactions":      phase.st.Compactions,
		}
		for name, want := range counters {
			if got := phase.reg.Counter(name).Value(); got != want {
				t.Errorf("%s: %s = %d, journal accounting says %d", phase.name, name, got, want)
			}
		}
		if got := phase.reg.Timing("checkpoint.fsync_ms").Snapshot().Count; got != phase.st.Fsyncs {
			t.Errorf("%s: fsync_ms count = %d, journal accounting says %d", phase.name, got, phase.st.Fsyncs)
		}
	}
	// The resume run really exercised recovery: one compaction, the torn
	// tail's (nothing compacts a journal but Resume).
	if st := r.Stats(); st.Truncations != 1 || st.Compactions != 1 || st.SitesSkipped != 1 || st.SitesReprobed != 1 {
		t.Errorf("resume stats vacuous: %+v", st)
	}
	if got := reg2.Gauge("checkpoint.armed").Value(); got != 1 {
		t.Errorf("armed gauge = %d for a healthy journal, want 1", got)
	}
}

func TestJournalRecordIsSingleWrite(t *testing.T) {
	// The torn-write model (and KillWriter's addressing) assumes one
	// Write call per record; count the writes to pin that invariant.
	path := journalPath(t)
	var writes int
	opts := &Options{WrapWriter: func(w WriteSyncer) WriteSyncer {
		return &countingWriter{w: w, n: &writes}
	}}
	j, err := Create(path, "2023-05", testCCs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Fatalf("create issued %d writes, want 2 (magic, header)", writes)
	}
	j.Append("TH", site("TH", "a.example", 1), okOutcome())
	if writes != 3 {
		t.Fatalf("append issued %d total writes, want 3 (one per record)", writes)
	}
	j.Close()
}

type countingWriter struct {
	w WriteSyncer
	n *int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	*c.n++
	return c.w.Write(p)
}

func (c *countingWriter) Sync() error { return c.w.Sync() }

func TestBinaryFrameLayout(t *testing.T) {
	// Freeze the wire framing: little-endian length then CRC32(payload).
	f, err := record([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(f[0:]); got != 3 {
		t.Errorf("length prefix = %d, want 3", got)
	}
	if got, want := binary.LittleEndian.Uint32(f[4:]), uint32(0x352441c2); got != want {
		t.Errorf("crc = %#x, want %#x (CRC32-IEEE of \"abc\")", got, want)
	}
	if string(f[8:]) != "abc" {
		t.Errorf("payload = %q", f[8:])
	}
}

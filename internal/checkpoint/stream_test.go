package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

func streamTestJournal(t *testing.T, sites int) (path string, appended []dataset.Website) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "crawl.journal")
	j, err := Create(path, "2023-05", []string{"US"}, &Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sites; i++ {
		site := dataset.Website{
			Country: "US", Rank: i + 1,
			Domain:       fmt.Sprintf("site%03d.example", i),
			HostProvider: "Hoster", TLD: "example",
		}
		j.Append("US", site, dataset.SiteOutcome{})
		appended = append(appended, site)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, appended
}

// collectStream runs StreamSites and gathers what the callbacks saw.
func collectStream(path string) (*JournalInfo, []JournalInfo, []dataset.Website, error) {
	var headers []JournalInfo
	var sites []dataset.Website
	info, err := StreamSites(path,
		func(i JournalInfo) error { headers = append(headers, i); return nil },
		func(_ string, s dataset.Website, _ dataset.SiteOutcome) error {
			sites = append(sites, s)
			return nil
		})
	return info, headers, sites, err
}

func TestStreamSitesClean(t *testing.T) {
	path, appended := streamTestJournal(t, 12)
	info, headers, sites, err := collectStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != "2023-05" || info.Truncated || info.Sites != 12 {
		t.Fatalf("info = %+v", info)
	}
	if !reflect.DeepEqual(info.Countries, []string{"US"}) {
		t.Fatalf("countries = %v", info.Countries)
	}
	if len(headers) != 1 || headers[0].Epoch != "2023-05" {
		t.Fatalf("onHeader saw %+v", headers)
	}
	if !reflect.DeepEqual(sites, appended) {
		t.Fatal("streamed sites differ from appended sites")
	}
}

// TestStreamSitesTornTail checks streaming mirrors Resume's recovery: the
// torn final record is dropped and flagged, everything before it delivered —
// and, unlike Resume, the file is left byte-for-byte untouched.
func TestStreamSitesTornTail(t *testing.T) {
	path, appended := streamTestJournal(t, 12)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := whole[:len(whole)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	info, _, sites, err := collectStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.Sites != 11 {
		t.Fatalf("info = %+v, want truncated with 11 sites", info)
	}
	if !reflect.DeepEqual(sites, appended[:11]) {
		t.Fatal("streamed sites differ from the durable prefix")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, torn) {
		t.Fatal("StreamSites rewrote the journal")
	}
}

// TestStreamSitesMidFileCorruption: damage before the final record is not
// recoverable residue; it must surface as a *CorruptError with the offset.
func TestStreamSitesMidFileCorruption(t *testing.T) {
	path, _ := streamTestJournal(t, 12)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole[len(whole)/2] ^= 0xFF
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = collectStream(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Offset <= 0 || ce.Offset >= int64(len(whole)) {
		t.Errorf("offset %d outside file of %d bytes", ce.Offset, len(whole))
	}
}

func TestStreamSitesBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.journal")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := collectStream(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
}

// TestStreamSitesHeaderTorn: a journal torn inside its header recorded
// nothing durable — no header info, no sites, flagged truncated.
func TestStreamSitesHeaderTorn(t *testing.T) {
	path, _ := streamTestJournal(t, 3)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(magic)+3], 0o644); err != nil {
		t.Fatal(err)
	}
	info, headers, sites, err := collectStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != "" || info.Sites != 0 || !info.Truncated {
		t.Fatalf("info = %+v", info)
	}
	if len(headers) != 0 || len(sites) != 0 {
		t.Fatal("callbacks ran for a journal with no durable records")
	}
}

func TestStreamSitesCallbackError(t *testing.T) {
	path, _ := streamTestJournal(t, 12)
	boom := errors.New("stop here")
	var n int
	_, err := StreamSites(path, nil, func(string, dataset.Website, dataset.SiteOutcome) error {
		n++
		if n == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("callback error not returned verbatim: %v", err)
	}
	if n != 5 {
		t.Fatalf("stream continued after callback error: %d calls", n)
	}
}

// TestStreamSitesMatchesResume cross-checks the two readers on the same
// journal: streaming must deliver exactly the records Resume replays.
func TestStreamSitesMatchesResume(t *testing.T) {
	path, _ := streamTestJournal(t, 20)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	streamed := map[Key]dataset.Website{}
	if _, err := StreamSites(path, nil, func(cc string, s dataset.Website, _ dataset.SiteOutcome) error {
		streamed[Key{Country: cc, Domain: s.Domain}] = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	j, err := Resume(path, "2023-05", []string{"US"}, &Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	replayed := map[Key]dataset.Website{}
	for k, e := range j.replay {
		replayed[k] = e.Site
	}
	if !reflect.DeepEqual(streamed, replayed) {
		t.Fatalf("streamed %d records, Resume replays %d — sets differ", len(streamed), len(replayed))
	}
}

package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// inspectJournalBytes builds a real shard journal on disk and returns its
// bytes, so InspectBytes is exercised against the production writer.
func inspectJournalBytes(t testing.TB, sites int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w0-g1.journal")
	sh := &ShardInfo{Worker: "w0", Index: 0, Total: 2, Gen: 1}
	j, err := CreateShard(path, "2023-05", []string{"CZ", "TH"}, sh, &Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sites; i++ {
		j.Append("TH", dataset.Website{Domain: "d" + string(rune('a'+i)) + ".th", Country: "TH", Rank: i + 1},
			dataset.SiteOutcome{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusOK, Language: dataset.StatusOK})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInspectBytesReadsHeaderAndSites(t *testing.T) {
	data := inspectJournalBytes(t, 3)
	info, err := InspectBytes(data, "wire")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version || info.Epoch != "2023-05" {
		t.Errorf("header = version %d epoch %q", info.Version, info.Epoch)
	}
	if len(info.Countries) != 2 || info.Countries[0] != "CZ" || info.Countries[1] != "TH" {
		t.Errorf("countries = %v", info.Countries)
	}
	if info.Shard == nil || info.Shard.Worker != "w0" || info.Shard.Gen != 1 {
		t.Errorf("shard = %+v", info.Shard)
	}
	if info.Sites != 3 || info.Truncated {
		t.Errorf("sites = %d truncated = %v, want 3 clean records", info.Sites, info.Truncated)
	}
}

func TestInspectBytesToleratesTornTail(t *testing.T) {
	data := inspectJournalBytes(t, 2)
	// Chop mid-way through the final record: the torn tail must be dropped,
	// not refused.
	info, err := InspectBytes(data[:len(data)-5], "wire")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || info.Sites != 1 {
		t.Errorf("info = %+v, want 1 site with a truncation", info)
	}
}

func TestInspectBytesRefusesMidFileCorruption(t *testing.T) {
	data := inspectJournalBytes(t, 3)
	// Flip a byte well before the final record: hard corruption, typed.
	data[len(data)/2] ^= 0xFF
	var ce *CorruptError
	if _, err := InspectBytes(data, "wire"); !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption returned %T (%v), want *CorruptError", err, err)
	} else if ce.Path != "wire" || ce.Offset <= 0 {
		t.Errorf("corrupt error = %+v, want the caller's name and a real offset", ce)
	}
	if _, err := InspectBytes([]byte("NOTAJRNL"), "wire"); !errors.As(err, &ce) {
		t.Fatalf("bad magic returned %T (%v), want *CorruptError", err, err)
	}
}

func TestInspectBytesHeaderlessPrefix(t *testing.T) {
	// A strict prefix of the magic is a torn first write: no header, no
	// sites, flagged truncated — never an error.
	info, err := InspectBytes([]byte("WDEP"), "wire")
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != "" || info.Sites != 0 || !info.Truncated {
		t.Errorf("info = %+v, want an empty truncated info", info)
	}
	info, err = InspectBytes(nil, "wire")
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated || info.Sites != 0 {
		t.Errorf("empty input = %+v", info)
	}
}

package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPreShardJournalResumesCleanly proves the backward direction of
// header compatibility: a journal written before shard descriptors
// existed — its header JSON literally has no "shard" key — must resume
// exactly as it always did. The fixture is built byte-for-byte rather
// than through Create, so the test pins the old wire format itself.
func TestPreShardJournalResumesCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "preshard.journal")
	buf := append([]byte(nil), magic...)
	for _, payload := range []string{
		`{"version":1,"epoch":"2023-05","countries":["CZ","TH"]}`,
		`{"country":"TH","site":{"Domain":"a.th","Country":"TH","Rank":1},"outcome":{"Host":1,"NS":1,"CA":1,"Language":1}}`,
	} {
		rec, err := record([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, rec...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Resume(path, "2023-05", testCCs, nil)
	if err != nil {
		t.Fatalf("pre-shard journal refused: %v", err)
	}
	defer j.Close()
	if j.Shard() != nil {
		t.Errorf("pre-shard journal reports shard %v", j.Shard())
	}
	if j.ReplayedSites() != 1 {
		t.Errorf("replayed %d sites, want 1", j.ReplayedSites())
	}
	if _, _, ok := j.Reuse("TH", "a.th"); !ok {
		t.Error("journaled site not reusable after resume")
	}
}

// TestShardJournalRefusedByResume proves the forward direction: a
// federated shard journal must never be resumed as a whole-crawl journal —
// it holds one vantage's slice, and resuming it would silently skip every
// other worker's sites.
func TestShardJournalRefusedByResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.journal")
	sh := &ShardInfo{Worker: "w1", Index: 1, Total: 3, Gen: 1}
	j, err := CreateShard(path, "2023-05", testCCs, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("TH", site("TH", "a.th", 1), okOutcome())
	if got := j.Shard(); got == nil || got.Worker != "w1" || got.Index != 1 || got.Total != 3 {
		t.Fatalf("Shard() = %+v", got)
	}
	j.Close()

	if _, err := Resume(path, "2023-05", testCCs, nil); err == nil {
		t.Fatal("Resume accepted a federated shard journal")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Errorf("refusal does not name the shard: %v", err)
	}

	// The shard descriptor must round-trip through the streaming reader,
	// which is what the merge layer validates against.
	info, err := StreamSites(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard == nil || info.Shard.Worker != "w1" || info.Shard.Gen != 1 {
		t.Errorf("streamed shard = %+v", info.Shard)
	}
	if info.Sites != 1 {
		t.Errorf("streamed %d sites, want 1", info.Sites)
	}
}

// TestCreateShardValidatesDescriptor rejects descriptors that could not
// address a federation slot.
func TestCreateShardValidatesDescriptor(t *testing.T) {
	dir := t.TempDir()
	cases := []*ShardInfo{
		nil,
		{Worker: "", Index: 0, Total: 3},
		{Worker: "w0", Index: -1, Total: 3},
		{Worker: "w0", Index: 3, Total: 3},
		{Worker: "w0", Index: 0, Total: 0},
	}
	for i, sh := range cases {
		if _, err := CreateShard(filepath.Join(dir, "bad.journal"), "2023-05", testCCs, sh, nil); err == nil {
			t.Errorf("case %d: descriptor %+v accepted", i, sh)
		}
	}
}

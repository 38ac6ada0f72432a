package fedcrawl

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
)

// cancelAfter cancels the caller's context as its n-th write goes through:
// a caller that gives up mid-crawl, with the journal still healthy.
type cancelAfter struct {
	checkpoint.WriteSyncer
	n      int
	cancel func()
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.WriteSyncer.Write(p)
}

// TestCrawlShardOutcomes pins CrawlShard's return contract, the one both
// Local and a remote vantage read: a finished crawl, a journal that cannot
// be created, a journal killed mid-crawl, and a caller that cancels.
func TestCrawlShardOutcomes(t *testing.T) {
	w, ep := fedWorld(t)
	var jobs []pipeline.SiteJob
	for i, d := range w.Truth.Get("TH").Domains() {
		jobs = append(jobs, pipeline.SiteJob{Country: "TH", Domain: d, Rank: i + 1})
	}
	a := Assignment{Worker: "w1", Index: 1, Total: 3, Gen: 2, Epoch: fedEpoch, Countries: fedCCs, Jobs: jobs}
	// inspect reads the journal at path back, failing the test if the
	// journal walker refuses it.
	inspect := func(t *testing.T, path string) *checkpoint.JournalInfo {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := checkpoint.InspectBytes(data, path)
		if err != nil {
			t.Fatalf("journal left at %s is refused: %v", path, err)
		}
		return info
	}

	cases := []struct {
		name string
		// dir is the journal's directory under the test's own.
		dir   string
		wrap  func(cancel func()) journalWrap
		check func(t *testing.T, err error, path string)
	}{
		{
			name: "clean",
			check: func(t *testing.T, err error, path string) {
				if err != nil {
					t.Fatalf("clean crawl returned %v", err)
				}
				info := inspect(t, path)
				want := checkpoint.ShardInfo{Worker: a.Worker, Index: a.Index, Total: a.Total, Gen: a.Gen}
				if info.Shard == nil || *info.Shard != want {
					t.Errorf("header shard = %+v, want %+v", info.Shard, want)
				}
				if info.Sites != int64(len(jobs)) || info.Truncated {
					t.Errorf("journal holds %d sites (truncated %v), want all %d", info.Sites, info.Truncated, len(jobs))
				}
			},
		},
		{
			name: "missing directory",
			dir:  "missing",
			check: func(t *testing.T, err error, path string) {
				if !errors.Is(err, ErrWorkerDead) {
					t.Fatalf("uncreatable journal returned %v, want ErrWorkerDead", err)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("uncreatable journal left a file: %v", err)
				}
			},
		},
		{
			name: "killed mid-crawl",
			// Magic, header, one record, then three bytes of the second.
			wrap: func(func()) journalWrap { return killAt(3, 3) },
			check: func(t *testing.T, err error, path string) {
				if !errors.Is(err, ErrWorkerDead) {
					t.Fatalf("disarmed journal returned %v, want ErrWorkerDead", err)
				}
				if info := inspect(t, path); info.Sites >= int64(len(jobs)) {
					t.Errorf("killed journal holds %d of %d sites", info.Sites, len(jobs))
				}
			},
		},
		{
			name: "caller cancels",
			wrap: func(cancel func()) journalWrap {
				return func(ws checkpoint.WriteSyncer) checkpoint.WriteSyncer {
					return &cancelAfter{WriteSyncer: ws, n: 3, cancel: cancel}
				}
			},
			check: func(t *testing.T, err error, path string) {
				if !errors.Is(err, context.Canceled) || errors.Is(err, ErrWorkerDead) {
					t.Fatalf("cancelled crawl returned %v, want context.Canceled and no worker death", err)
				}
				inspect(t, path)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := &checkpoint.Options{Obs: obs.NewRegistry()}
			if tc.wrap != nil {
				opts.WrapWriter = tc.wrap(cancel)
			}
			path := filepath.Join(t.TempDir(), tc.dir, JournalName(a.Worker, a.Gen))
			live := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)(a.Worker)
			live.Workers = 1
			tc.check(t, CrawlShard(ctx, path, a, live, opts), path)
		})
	}
}

// TestAssignmentJSONPinned pins the assignment's wire form: a vantage
// from an older build must decode what this coordinator signs.
func TestAssignmentJSONPinned(t *testing.T) {
	got, err := json.Marshal(Assignment{
		Worker: "w1", Index: 1, Total: 3, Gen: 2, Epoch: "2023-05", Countries: []string{"CZ", "TH"},
		Jobs: []pipeline.SiteJob{{Country: "TH", Domain: "a.th", Rank: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"worker":"w1","index":1,"total":3,"gen":2,"epoch":"2023-05","countries":["CZ","TH"],` +
		`"jobs":[{"Country":"TH","Domain":"a.th","Rank":7}]}`
	if string(got) != want {
		t.Errorf("assignment JSON changed:\n got %s\nwant %s", got, want)
	}
	var back Assignment
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); string(again) != want {
		t.Errorf("assignment does not round-trip: %s", again)
	}
}

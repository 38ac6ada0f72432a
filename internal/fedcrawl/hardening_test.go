package fedcrawl

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
)

// TestGenFromNameHostileFilenames pins the generation parser against
// hostile or merely strange file names in the journal directory: anything
// that is not a plain bounded run of digits after "-g" parses as
// generation 0 — never a negative generation, never an integer overflow,
// never a panic.
func TestGenFromNameHostileFilenames(t *testing.T) {
	cases := []struct {
		path string
		want int
	}{
		{"w0-g1.journal", 1},
		{"w12-g34.journal", 34},
		{"/some/dir/w3-g7.journal", 7},
		{"w0-g999999999.journal", 999999999},
		// No generation marker at all.
		{"w0.journal", 0},
		{"plain.journal", 0},
		{"", 0},
		// Empty digit run.
		{"w0-g.journal", 0},
		// Signs are not digits: a "negative generation" cannot be smuggled
		// in to drag maxGen below zero, nor a "+" to confuse parsing.
		{"w0-g-5.journal", 0},
		{"w0-g+7.journal", 0},
		// Ten or more digits would overflow toward surprising generations;
		// the parser refuses rather than truncates.
		{"w0-g1000000000.journal", 0},
		{"w0-g9223372036854775807.journal", 0},
		{"w0-g99999999999999999999999999.journal", 0},
		// Non-digits anywhere in the run.
		{"w0-gabc.journal", 0},
		{"w0-g1x2.journal", 0},
		{"w0-g0x10.journal", 0},
		// The LAST "-g" wins, matching how worker names themselves may
		// contain "-g".
		{"w-g2-g5.journal", 5},
		{"w-g2-gx.journal", 0},
		// The coordinator's own names parse back.
		{JournalName("w3", 7), 7},
	}
	for _, tc := range cases {
		if got := genFromName(tc.path); got != tc.want {
			t.Errorf("genFromName(%q) = %d, want %d", tc.path, got, tc.want)
		}
	}
}

// TestScanIgnoresInflightTempFiles pins the atomic-rename contract from
// the scanner's side: artifacts arrive in the merge directory as
// "<name>.journal.tmp-*" temp files first and are renamed into place only
// when whole. Both the final merge and the coordinator's durable-state
// scan must ignore in-flight temp files entirely — never merge them,
// never refuse them as corrupt, never dispatch differently because of
// them.
func TestScanIgnoresInflightTempFiles(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	dir := t.TempDir()
	factory := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)
	c, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Plant in-flight arrivals: half-written artifact temp files exactly as
	// checkpoint.WriteFileAtomic names them, plus a bare .tmp straggler.
	// Their contents are garbage — which is the point: a scanner that reads
	// them would refuse them as corrupt.
	for _, name := range []string{
		"w0-g1.journal.tmp-123456",
		"w1-g2.journal.tmp-777",
		"w9-g3.journal.tmp",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written garbage, not a journal"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	res, err := Merge(dir, fedEpoch, fedCCs, reg)
	if err != nil {
		t.Fatalf("merge with in-flight temp files refused: %v", err)
	}
	if n := res.Stats.MergeRefusalsForeign + res.Stats.MergeRefusalsCorrupt; n != 0 {
		t.Fatalf("merge refused %d in-flight temp files as journals", n)
	}
	assertFedConverged(t, "tmp-ignore", fedCCs, want, res.Corpus)

	// The coordinator's scan must reach the same verdict: the directory is
	// complete, so a resumed coordinator dispatches nothing.
	cfg := fedConfig(w, dir, 2, func(worker string) *pipeline.Live {
		t.Errorf("resume dispatched worker %s because of an in-flight temp file", worker)
		return factory(worker)
	})
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Waves != 0 || res2.Stats.Dispatches != 0 {
		t.Errorf("resume over a complete directory with temp files ran %+v", res2.Stats)
	}
	assertFedConverged(t, "tmp-ignore-resume", fedCCs, want, res2.Corpus)
}

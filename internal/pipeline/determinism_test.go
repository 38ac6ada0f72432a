package pipeline

import (
	"strings"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

// measureWithWorkers measures the same world at a given worker count.
func measureWithWorkers(t *testing.T, w *worldgen.World, workers int) *dataset.Corpus {
	t.Helper()
	p := FromWorld(w)
	p.Workers = workers
	corpus, err := p.MeasureWorld(w)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return corpus
}

// TestMeasureWorldDeterministicAcrossWorkers is the parallel engine's core
// guarantee: the measured corpus at workers=1 (sequential) and workers=8
// must agree record-for-record, and every downstream scoring path must
// agree value-for-value.
func TestMeasureWorldDeterministicAcrossWorkers(t *testing.T) {
	w := buildWorld(t, "TH", "IR", "US", "CZ", "AZ", "HK", "RU", "SK")
	seq := measureWithWorkers(t, w, 1)
	par := measureWithWorkers(t, w, 8)

	if len(seq.Lists) != len(par.Lists) {
		t.Fatalf("corpora differ in country count: %d vs %d", len(seq.Lists), len(par.Lists))
	}
	for _, cc := range seq.Countries() {
		a, b := seq.Get(cc), par.Get(cc)
		if b == nil {
			t.Fatalf("%s missing from parallel corpus", cc)
		}
		if len(a.Sites) != len(b.Sites) {
			t.Fatalf("%s: %d sites sequential, %d parallel", cc, len(a.Sites), len(b.Sites))
		}
		for i := range a.Sites {
			if a.Sites[i] != b.Sites[i] {
				t.Fatalf("%s site %d differs:\n seq %+v\n par %+v", cc, i, a.Sites[i], b.Sites[i])
			}
		}
	}

	// Scores and the other corpus-wide computations must be bit-identical
	// too, at every worker count of the scoring pool itself.
	for _, layer := range countries.Layers {
		seqScores := seq.ScoreSet().Scores(layer)
		parScores := par.ScoreSet().Scores(layer)
		for cc, v := range seqScores {
			if parScores[cc] != v {
				t.Errorf("%v score for %s: %v sequential, %v parallel", layer, cc, v, parScores[cc])
			}
		}
		seqIns := seq.ScoreSet().Insularities(layer)
		for cc, v := range par.ScoreSet().Insularities(layer) {
			if seqIns[cc] != v {
				t.Errorf("%v insularity for %s differs across worker counts", layer, cc)
			}
		}
		if a, b := seq.ScoreSet().GlobalDistribution(layer).Score(), par.ScoreSet().GlobalDistribution(layer).Score(); a != b {
			t.Errorf("%v global score: %v sequential, %v parallel", layer, a, b)
		}
	}
}

// TestMeasureWorldFailingCountryAbortsPromptly drops one country's raw
// sites out of a world and checks the parallel measurement reports that
// country's error quickly instead of finishing (or hanging on) the rest.
func TestMeasureWorldFailingCountryAbortsPromptly(t *testing.T) {
	w := buildWorld(t, "TH", "IR", "US", "CZ", "AZ", "HK", "RU", "SK")
	delete(w.Raw, "AZ")
	p := FromWorld(w)
	p.Workers = 8

	start := time.Now()
	_, err := p.MeasureWorld(w)
	if err == nil {
		t.Fatal("measurement of a world with a missing country succeeded")
	}
	if !strings.Contains(err.Error(), "AZ") {
		t.Errorf("error does not name the failing country: %v", err)
	}
	// "Promptly" here just means the pool did not wedge: the whole world
	// measures in well under a minute, so treat that as the hang budget.
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Errorf("abort took %v", elapsed)
	}
}

// TestMeasureWorldWorkerSweep cross-checks a few more worker counts against
// the sequential corpus on a smaller world, guarding the index-addressing
// against off-by-one rotations that only show at odd pool sizes.
func TestMeasureWorldWorkerSweep(t *testing.T) {
	w := buildWorld(t, "TH", "US", "CZ")
	seq := measureWithWorkers(t, w, 1)
	for _, workers := range []int{2, 3, 5, 16} {
		par := measureWithWorkers(t, w, workers)
		for _, cc := range seq.Countries() {
			a, b := seq.Get(cc), par.Get(cc)
			for i := range a.Sites {
				if a.Sites[i] != b.Sites[i] {
					t.Fatalf("workers=%d: %s site %d differs", workers, cc, i)
				}
			}
		}
	}
}

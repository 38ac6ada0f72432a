package report

import (
	"bytes"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/depgraph"
)

func TestSPOFTable(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	SPOFTable(&buf, "single points of failure", depgraph.Build(corpus, nil).TopSPOFs(5))
	out := buf.String()
	for _, want := range []string{"single points of failure", "Rank", "radius", "share"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + underline + header + five data rows.
	if lines := strings.Count(out, "\n"); lines != 8 {
		t.Errorf("line count = %d:\n%s", lines, out)
	}
	if !strings.Contains(out, "   1  ") {
		t.Errorf("missing rank column:\n%s", out)
	}
}

func TestSPOFTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	SPOFTable(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "no providers measured") {
		t.Errorf("empty table missing placeholder:\n%s", buf.String())
	}
}

func TestImpactTable(t *testing.T) {
	corpus := corpusForReport(t)
	g := depgraph.Build(corpus, nil)
	worst := g.TopSPOFs(1)[0].Provider
	imp, err := g.Simulate(worst)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ImpactTable(&buf, "what-if", imp)
	out := buf.String()
	for _, want := range []string{"what-if", "CC", "hosting", "dns", "ca", "TOTAL", "TH", "US"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title + underline + header + six country rows + TOTAL.
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Errorf("line count = %d:\n%s", lines, out)
	}
}

func TestImpactTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	ImpactTable(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "no countries in corpus") {
		t.Errorf("empty table missing placeholder:\n%s", buf.String())
	}
}

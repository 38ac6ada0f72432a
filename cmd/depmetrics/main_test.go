package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
)

func TestParseLayer(t *testing.T) {
	for _, name := range []string{"hosting", "dns", "ca", "tld"} {
		layer, err := parseFlags(name, 0)
		if err != nil || layer.String() != name {
			t.Errorf("parseFlags(%q, 0) = %v, %v", name, layer, err)
		}
	}
	if _, err := parseFlags("bogus", 5); err == nil {
		t.Error("bogus layer accepted")
	}
	// A negative -top is a usage error too, not a slice-bounds panic in
	// the report.
	if _, err := parseFlags("hosting", -1); err == nil || !strings.Contains(err.Error(), "-top") {
		t.Errorf("-top -1 accepted: %v", err)
	}
}

func TestReportOnCSV(t *testing.T) {
	list := &dataset.CountryList{Country: "TH", Epoch: "x", Sites: []dataset.Website{
		{Domain: "a.th", Country: "TH", Rank: 1, HostProvider: "Cloudflare", HostProviderCountry: "US", TLD: "th"},
		{Domain: "b.th", Country: "TH", Rank: 2, HostProvider: "Cloudflare", HostProviderCountry: "US", TLD: "th"},
		{Domain: "c.com", Country: "TH", Rank: 3, HostProvider: "ThaiHost", HostProviderCountry: "TH", TLD: "com"},
	}}
	path := filepath.Join(t.TempDir(), "TH.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, list); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// One of three sites is hosted in Thailand; two of three are .th, and a
	// ccTLD is insular to its owner.
	for layer, want := range map[countries.Layer]string{countries.Hosting: "insularity = 33.3%", countries.TLD: "insularity = 66.7%"} {
		var out bytes.Buffer
		if err := report(&out, path, "x", layer, 3); err != nil {
			t.Fatalf("report: %v", err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%v report lacks %q:\n%s", layer, want, out.String())
		}
	}
	if err := report(io.Discard, filepath.Join(t.TempDir(), "missing.csv"), "x", countries.Hosting, 3); err == nil {
		t.Error("missing file accepted")
	}
}

package tldinfo

import (
	"strings"
	"testing"
)

// FuzzExtract drives the TLD extractor with arbitrary domain strings: it
// must never panic, and every non-empty result must satisfy the extractor's
// contract — lowercase, dot-free, a suffix of the normalized input — and
// classify consistently with the ccTLD ownership tables.
//
// Run with `go test -fuzz=FuzzExtract ./internal/tldinfo` for open-ended
// fuzzing; the seed corpus runs under plain `go test`.
func FuzzExtract(f *testing.F) {
	for _, seed := range []string{
		"", ".", "..", "com", "example.com", "EXAMPLE.COM.", "example.co.th",
		"www.example.co.uk", "xn--fiqs8s.example.中国", "a.b.c.d.e.f.io",
		" spaced.com ", "trailing.dot.", "no-tld", "ends-with-dot..",
		"\x00binary.com", "mixed.CaSe.Th",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, domain string) {
		tld := Extract(domain)

		// Recompute the extractor's normalization to check the contract.
		norm := strings.TrimSuffix(strings.ToLower(strings.TrimSpace(domain)), ".")
		// The result is the final label of the whole lowercased name.
		if want := norm[strings.LastIndexByte(norm, '.')+1:]; tld != want {
			t.Fatalf("Extract(%q) = %q, the final label of %q is %q", domain, tld, norm, want)
		}
		if tld == "" {
			return // empty/invalid inputs legitimately yield no TLD
		}
		if tld != strings.ToLower(tld) {
			t.Fatalf("Extract(%q) = %q is not lowercase", domain, tld)
		}
		if strings.Contains(tld, ".") {
			t.Fatalf("Extract(%q) = %q contains a dot", domain, tld)
		}
		if !strings.HasSuffix(norm, tld) {
			t.Fatalf("Extract(%q) = %q is not a suffix of %q", domain, tld, norm)
		}
		// Extracting from the TLD itself must be a fixed point (except for
		// labels with leading whitespace, which re-normalize on the way in).
		if strings.TrimSpace(tld) == tld {
			if again := Extract(tld); again != tld {
				t.Fatalf("Extract(%q) = %q, but Extract(%q) = %q", domain, tld, tld, again)
			}
		}

		// Classification must agree with the ownership tables for every
		// perspective country.
		owner := CountryForCCTLD(tld)
		for _, cc := range []string{"US", "TH", owner} {
			if cc == "" {
				continue
			}
			kind := Classify(tld, cc)
			switch {
			case tld == "com":
				if kind != Com {
					t.Fatalf("Classify(com, %s) = %v", cc, kind)
				}
			case owner == "":
				if kind != GlobalTLD {
					t.Fatalf("Classify(%q, %s) = %v for unowned TLD", tld, cc, kind)
				}
			case owner == cc:
				if kind != LocalCC {
					t.Fatalf("Classify(%q, %s) = %v, want LocalCC", tld, cc, kind)
				}
			default:
				if kind != ExternalCC {
					t.Fatalf("Classify(%q, %s) = %v, want ExternalCC", tld, cc, kind)
				}
			}
		}

		// InsularTo: .com is insular to the U.S.; ccTLDs to their owner;
		// other gTLDs to no one.
		switch ins := InsularTo(tld); {
		case tld == "com" && ins != "US":
			t.Fatalf("InsularTo(com) = %q", ins)
		case tld != "com" && ins != owner:
			t.Fatalf("InsularTo(%q) = %q, owner %q", tld, ins, owner)
		}
	})
}

package worldgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// worldDigest hashes a world's raw sites and ground truth, country by
// country in config order, through their JSON encodings.
func worldDigest(t *testing.T, w *World) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, cc := range w.Config.Countries {
		if err := enc.Encode(w.Raw[cc]); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(w.Truth.Get(cc)); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldBytesPinned freezes every byte a world generates — domains,
// addresses, ranks, languages and providers, not only the scores the
// goldens pin — so a faster generator must produce the same worlds. The
// digests were recorded from the one-country-at-a-time generator with a
// sort-based calibration kernel.
func TestWorldBytesPinned(t *testing.T) {
	golden := Config{
		Seed:               7,
		SitesPerCountry:    600,
		DomesticPerCountry: 30,
		Countries:          []string{"AU", "BR", "CZ", "DE", "IN", "IR", "JP", "TH", "US", "ZA"},
	}
	geoErr := golden
	geoErr.GeoErrorRate = 0.106

	small, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	next, err := BuildNextEpoch(small, "2025-05")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		w    *World
		want string
	}{
		{"small", small, "091c6505758a20ae362850416c5dfa3f1bbe4eb9744f70fcc29a913e5a652499"},
		{"small next epoch", next, "f8624d71b325196f149f449457bb0a33008011935de5596ce5e402370cf8578d"},
		{"golden", mustBuild(t, golden), "dfe78f081e56e22329db428dadd8d543754b007d47600c8a45965bf9e51bb3cb"},
		{"golden geo error", mustBuild(t, geoErr), "dfe78f081e56e22329db428dadd8d543754b007d47600c8a45965bf9e51bb3cb"},
	}
	for _, tc := range cases {
		if got := worldDigest(t, tc.w); got != tc.want {
			t.Errorf("%s: world digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func mustBuild(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildIndependentOfGOMAXPROCS: countries are generated concurrently,
// and a world built on one P must equal one built on all of them.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	all := buildSmall(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := buildSmall(t)
	if !reflect.DeepEqual(one.Raw, all.Raw) || !reflect.DeepEqual(one.Truth, all.Truth) {
		t.Fatal("world built at GOMAXPROCS=1 differs from the default build")
	}
}

package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFixtureModule pins the rule on testdata/mod: a function main calls, a
// function only a _test.go file calls, a method only fmt.Stringer reaches,
// and generics reached through their instantiations.
func TestFixtureModule(t *testing.T) {
	unreached, err := analyze("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, d := range unreached {
		got[d.name] = d.lines
	}
	want := map[string]int{
		"internal/lib.TestOnly":       2, // with its doc comment
		"internal/lib.Celsius.Kelvin": 1,
		"internal/lib.Box.Put":        1,
		"internal/lib.Spare":          2, // the type and its method
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}

	ledger := func(lines ...string) map[string]string {
		l, err := parseLedger(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if p := check(unreached, ledger("# all four", "internal/lib\tharness")); len(p) != 0 {
		t.Errorf("a package line does not cover its declarations: %v", p)
	}
	p := check(unreached, ledger(
		"internal/lib.Celsius.Kelvin\tobserver",
		"internal/lib.Box.Put\tobserver",
		"internal/lib.Spare\treference",
		"internal/lib.Reachable\tobserver",
	))
	if len(p) != 2 || !strings.Contains(p[0], "internal/lib.Reachable is reachable or gone") || !strings.Contains(p[1], "internal/lib.TestOnly") {
		t.Errorf("want the stale Reachable line and the unlisted TestOnly, got %q", p)
	}
	if _, err := parseLedger(strings.NewReader("internal/lib.TestOnly\tbecause")); err == nil {
		t.Error("a reason outside the vocabulary was accepted")
	}
}

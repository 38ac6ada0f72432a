package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []Result
	}{
		{
			name: "preamble and trailer skipped",
			in: `goos: linux
goarch: amd64
pkg: github.com/webdep/webdep/internal/parallel
cpu: Some CPU @ 2.00GHz
BenchmarkMap-8   	    1000	   1234 ns/op	  64 B/op	   2 allocs/op
PASS
ok  	github.com/webdep/webdep/internal/parallel	1.234s
`,
			want: []Result{{Name: "BenchmarkMap", Procs: 8, Iterations: 1000,
				Metrics: map[string]float64{"ns/op": 1234, "B/op": 64, "allocs/op": 2}}},
		},
		{
			name: "no procs suffix",
			in:   "BenchmarkMap 500 10.5 ns/op\n",
			want: []Result{{Name: "BenchmarkMap", Iterations: 500,
				Metrics: map[string]float64{"ns/op": 10.5}}},
		},
		{
			name: "procs suffix split from a dashed sub-benchmark",
			in:   "BenchmarkReload/Unchanged-16 20 51000 ns/op\n",
			want: []Result{{Name: "BenchmarkReload/Unchanged", Procs: 16, Iterations: 20,
				Metrics: map[string]float64{"ns/op": 51000}}},
		},
		{
			name: "count repeats stay separate",
			in: `BenchmarkMap-2 100 30 ns/op
BenchmarkMap-2 100 31 ns/op
BenchmarkMap-2 100 29 ns/op
`,
			want: []Result{
				{Name: "BenchmarkMap", Procs: 2, Iterations: 100, Metrics: map[string]float64{"ns/op": 30}},
				{Name: "BenchmarkMap", Procs: 2, Iterations: 100, Metrics: map[string]float64{"ns/op": 31}},
				{Name: "BenchmarkMap", Procs: 2, Iterations: 100, Metrics: map[string]float64{"ns/op": 29}},
			},
		},
		{
			name: "custom units kept",
			in: `BenchmarkReload/Unchanged-2 20000 52000 ns/op 0 ap-runs/op
BenchmarkCrawlSite-2 500 812345 ns/site 1.000 handshakes/site
`,
			want: []Result{
				{Name: "BenchmarkReload/Unchanged", Procs: 2, Iterations: 20000,
					Metrics: map[string]float64{"ns/op": 52000, "ap-runs/op": 0}},
				{Name: "BenchmarkCrawlSite", Procs: 2, Iterations: 500,
					Metrics: map[string]float64{"ns/site": 812345, "handshakes/site": 1}},
			},
		},
		{
			name: "name-only and non-numeric lines skipped",
			in: `BenchmarkMap-2
BenchmarkSlow-2 --- FAIL: ns/op
BenchmarkBad-2 100 fast ns/op
BenchmarkIters-2 many 12 ns/op
BenchmarkGood-2 100 12 ns/op
`,
			want: []Result{{Name: "BenchmarkGood", Procs: 2, Iterations: 100,
				Metrics: map[string]float64{"ns/op": 12}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parse(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parse =\n %+v\nwant\n %+v", got, tc.want)
			}
		})
	}
}

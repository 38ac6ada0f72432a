package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := sortSamples([]int64{50, 10, 40, 20, 30})
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.01, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.99, 50}, {1, 50}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99 (one sample beyond it)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := median([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %d, want the mean of the middle two, rounded down", got)
	}
}

func TestCovered(t *testing.T) {
	// Two overlapping children and one that runs past the parent.
	got := covered([][2]int64{{10, 30}, {20, 40}, {90, 120}}, 0, 100)
	if got != 40 {
		t.Errorf("covered = %d, want 40 (10..40 and 90..100)", got)
	}
}

func TestReadResponse(t *testing.T) {
	big := strings.Repeat("x", 5000)
	cases := []struct {
		name, raw, body string
		status          int
		bad             bool
	}{
		{name: "content-length", raw: "HTTP/1.1 200 OK\r\nContent-Type: a/b\r\ncontent-length: 5\r\n\r\nhello", status: 200, body: "hello"},
		{name: "chunked", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2;ext=1\r\nlo\r\n0\r\n\r\n", status: 200, body: "hello"},
		{name: "chunked with trailer", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1388\r\n" + big + "\r\n0\r\nX-T: 1\r\n\r\n", status: 200, body: big},
		{name: "not found", raw: "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", status: 404},
		{name: "short body", raw: "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhello", bad: true},
		{name: "short chunk", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nhello\r\n0\r\n\r\n", bad: true},
		{name: "chunk without CRLF", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhello\r\n0\r\n\r\n", bad: true},
		{name: "bad chunk size", raw: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", bad: true},
		{name: "no framing", raw: "HTTP/1.1 200 OK\r\n\r\nhello", bad: true},
	}
	for _, c := range cases {
		// Two responses back to back: the reader must stop exactly at the
		// end of the first for a keep-alive connection to stay usable.
		raw := c.raw + c.raw
		if c.bad {
			raw = c.raw
		}
		br := bufio.NewReader(strings.NewReader(raw))
		var buf []byte
		for i := 0; i < 2; i++ {
			status, body, err := readResponse(br, buf[:0])
			if c.bad {
				if err == nil {
					t.Errorf("%s: accepted", c.name)
				}
				break
			}
			if err != nil || status != c.status || string(body) != c.body {
				t.Errorf("%s, response %d: status %d, %d body bytes, err %v", c.name, i, status, len(body), err)
				break
			}
			buf = body
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("workloads differ:\n manifest %+v\n program  %+v", m.Workloads, workloads)
	}
	var e2e, layers []metricDef
	for _, d := range m.EndToEnd {
		e2e = append(e2e, metricDef{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range m.PerLayer {
		layers = append(layers, metricDef{d.Name, d.Unit, d.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n manifest %+v\n program  %+v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n manifest %+v\n program  %+v", layers, perLayer)
	}
}

// runSmoke runs the program at smoke sizes and returns the exit code and
// the result lines it printed, one per workload.
func runSmoke(t *testing.T, o options) (int, []result, string) {
	t.Helper()
	o.seed, o.repeat, o.workdir = 11, 1, t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(o, smokeSizes, &stdout, &stderr)
	var results []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	return code, results, stdout.String() + stderr.String()
}

// TestSmoke runs all four workloads, untraced and traced, with every
// correctness check on. It proves the benchmark builds and checks pass; the
// numbers at these sizes mean nothing.
func TestSmoke(t *testing.T) {
	for _, c := range []struct {
		trace int
		defs  []metricDef
	}{{0, endToEnd}, {1, perLayer}} {
		out := filepath.Join(t.TempDir(), "spans.jsonl")
		code, results, log := runSmoke(t, options{workload: "all", trace: c.trace, out: out})
		if code != 0 || len(results) != len(workloads) {
			t.Fatalf("trace %d: exit %d with %d result lines\n%s", c.trace, code, len(results), log)
		}
		for i, r := range results {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(c.defs) {
				t.Errorf("trace %d, %s: %+v", c.trace, workloads[i].Name, r)
			}
			for _, d := range c.defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit || (c.trace == 0 && m.Value <= 0) {
					t.Errorf("trace %d, %s: metric %s = %+v", c.trace, workloads[i].Name, d.Name, m)
				}
			}
		}
		if c.trace == 1 {
			if spans, err := os.ReadFile(out); err != nil || bytes.Count(spans, []byte("\n")) < 100 {
				t.Errorf("span file: %d bytes, err %v", len(spans), err)
			}
		}
	}
}

// A corrupted response body must count as a failed operation and fail the
// run, on both workloads that read bodies off the wire.
func TestCorruptBodyFails(t *testing.T) {
	for _, w := range []string{hotName, churnName} {
		code, results, log := runSmoke(t, options{workload: w, fault: fault{corruptBody: true}})
		if code == 0 || len(results) != 1 || results[0].Correct || results[0].Failed == 0 {
			t.Errorf("%s: exit %d, results %+v\n%s", w, code, results, log)
		}
	}
}

// A field the vantages cannot measure must fail the campaign, every site
// of it, and the run.
func TestLostFieldFails(t *testing.T) {
	code, results, log := runSmoke(t, options{workload: crawlName, fault: fault{deadTLS: true}})
	if code == 0 || len(results) != 1 || results[0].Correct || results[0].Failed != results[0].Attempted {
		t.Errorf("exit %d, results %+v\n%s", code, results, log)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if code, results, _ := runSmoke(t, options{workload: "nope"}); code != 2 || len(results) != 0 {
		t.Errorf("exit %d with %d result lines, want 2 and none", code, len(results))
	}
}

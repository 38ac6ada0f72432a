package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's public functions; nothing inside the program under
// test is instrumented. They are held in memory and written only when the
// run ends, so recording costs one clock read and one append per edge.

// span is one timed call. Parent is the ID of the span that caused it, 0
// for a root; spans of one iteration share Iter.
type span struct {
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so one code path
// serves traced and untraced loops where the calls are the same.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// alternate is how a measured loop uses its tracer: odd iterations are
// traced and even ones are not, so the two kinds share whatever the machine
// is doing and their difference is the tracing overhead.
func (t *tracer) alternate(iter int) *tracer {
	if iter%2 == 0 {
		return nil
	}
	return t
}

// start opens a span and returns its ID for end and for children.
func (t *tracer) start(workload string, iter int, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Workload: workload, Iter: iter, ID: id, Name: name, Parent: parent, StartNS: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime is one span name's totals within a workload.
type selfTime struct {
	Workload string
	Name     string
	Calls    int
	Total    time.Duration
	Self     time.Duration
}

// selfTimes aggregates spans by (workload, name). A span's self time is
// its duration minus the part of its interval its children cover; children
// that ran in parallel are merged first, so overlap is not subtracted
// twice.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	type key struct{ workload, name string }
	agg := map[key]*selfTime{}
	for _, s := range spans {
		k := key{s.Workload, s.Name}
		a := agg[k]
		if a == nil {
			a = &selfTime{Workload: s.Workload, Name: s.Name}
			agg[k] = a
		}
		dur := s.EndNS - s.StartNS
		a.Calls++
		a.Total += time.Duration(dur)
		a.Self += time.Duration(dur - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Self > out[j].Self
	})
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func printSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "\n%-16s %-34s %9s %14s %14s\n", "workload", "span", "calls", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-34s %9d %14.3f %14.3f\n", r.Workload, r.Name, r.Calls, ms(r.Total), ms(r.Self))
	}
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

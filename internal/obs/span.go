package obs

import "time"

// Span times one stage of work into a millisecond histogram. It is a value
// type — starting and ending a span allocates nothing — so hot paths can
// time every task without garbage pressure. The histogram pointer is
// hoisted by the caller (typically once per component), keeping registry
// lookups off the hot path entirely.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing against the given histogram. A nil histogram
// yields a span whose End is a pure clock read — spans can be left in the
// code with metrics disabled.
func StartSpan(h *Histogram) Span {
	return Span{h: h, start: time.Now()}
}

// End stops the span, records the elapsed time in milliseconds, and
// returns the elapsed duration.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(float64(d) / float64(time.Millisecond))
	}
	return d
}

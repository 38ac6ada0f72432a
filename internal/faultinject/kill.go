package faultinject

import (
	"errors"
	"io"
	"sync"
)

// ErrKilled is returned by a KillWriter for every write or sync after its
// kill point: the simulated process is dead, nothing reaches the disk.
var ErrKilled = errors.New("faultinject: write stream killed at kill point")

// KillWriter simulates a process crash at an exact point in a write
// stream. It forwards the first AfterWrites complete Write calls, then
// lets ExtraBytes more bytes of the next write through before failing —
// landing the kill mid-record for length-prefixed journal formats — and
// from then on fails every Write and Sync with ErrKilled.
//
// The checkpoint journal's append path carries only site records, one
// Write each (the magic and header are written whole before it opens), so
// (AfterWrites, ExtraBytes) addresses any offset past the header:
// AfterWrites counts records, and the kill lands on a whole-record
// boundary with ExtraBytes zero, or as an arbitrary torn write inside
// record AfterWrites+1 otherwise. Decisions are deterministic functions of the
// write sequence, in the spirit of the proxies' Plan.
type KillWriter struct {
	mu        sync.Mutex
	w         io.Writer
	remaining int   // complete writes still allowed
	extra     int64 // bytes of the fatal write still allowed through
	killed    bool
	onKill    func()
}

// NewKillWriter wraps w with a kill point after afterWrites complete
// writes plus extraBytes of the following write. onKill, when non-nil,
// runs exactly once — on the caller's goroutine — at the moment the kill
// triggers, so tests can abort the crawl as the "crash" happens.
func NewKillWriter(w io.Writer, afterWrites int, extraBytes int64, onKill func()) *KillWriter {
	return &KillWriter{w: w, remaining: afterWrites, extra: extraBytes, onKill: onKill}
}

// Write forwards p until the kill point; the fatal write persists only its
// allowed prefix and returns ErrKilled alongside the short count.
func (k *KillWriter) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.killed {
		return 0, ErrKilled
	}
	if k.remaining > 0 {
		k.remaining--
		return k.w.Write(p)
	}
	n := len(p)
	if int64(n) > k.extra {
		n = int(k.extra)
	}
	if n > 0 {
		if wn, err := k.w.Write(p[:n]); err != nil {
			// The underlying disk failed before the simulated crash did;
			// surface that truthfully.
			return wn, err
		}
	}
	k.kill()
	return n, ErrKilled
}

// Sync forwards to the underlying writer's Sync until the kill point.
func (k *KillWriter) Sync() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.killed {
		return ErrKilled
	}
	if s, ok := k.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Killed reports whether the kill point has triggered.
func (k *KillWriter) Killed() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.killed
}

func (k *KillWriter) kill() {
	k.killed = true
	if k.onKill != nil {
		k.onKill()
	}
}

// Package framing owns the one frame every webdep byte format is built
// from — checkpoint journals, corpus store shards and manifests, and the
// meta record of a signed transport artifact:
//
//	u32le payload length | u32le CRC32-IEEE(payload) | payload
//
// A file is a caller-chosen magic followed by frames. This package writes
// frames, walks them, and decides what damage means; what a payload holds
// (JSON, a columnar block, a leading type byte) is the caller's business.
//
// The one decision that differs between callers is what damage reaching
// the end of the stream means, and it follows from how the file was
// written, so it is a constructor argument (TailPolicy) with two values.
// An append-only journal killed mid-append legitimately ends in a short
// header, a payload cut short, a garbage length pointing past the end, or a
// final frame that fails its checksum: TolerateTornTail drops that tail and
// flags it, and still refuses damage with intact bytes after it, because
// dropping that would drop the good frames behind it. A file written whole
// and renamed into place, or bytes that crossed a network under a
// signature, are never legitimately partial: Strict refuses everything.
package framing

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderSize is the length of a frame's length and checksum words.
const HeaderSize = 8

// CorruptError reports bytes that cannot be trusted: a bad magic, a frame
// cut short, over-long or failing its checksum, or — raised by the formats
// built on the frame — a payload that does not decode or contradicts its
// file. Offset is where the damaged frame starts.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("framing: %s: corrupt at byte offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Write frames one payload, given as parts, to w and returns the bytes
// written. The checksum runs over the parts in place and the parts are
// written one after the header, so a payload is never copied into a frame of
// its own. A payload longer than max — the bound the format's reader
// enforces — is refused before anything is written.
func Write(w io.Writer, max int, parts ...[]byte) (int, error) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if size > max {
		return 0, fmt.Errorf("framing: payload of %d bytes exceeds maximum %d", size, max)
	}
	sum := uint32(0)
	for _, p := range parts {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(size))
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	written, err := w.Write(hdr[:])
	for _, p := range parts {
		if err != nil {
			break
		}
		if len(p) == 0 {
			continue
		}
		var n int
		n, err = w.Write(p)
		written += n
	}
	return written, err
}

// ParseHeader splits a frame header (at least HeaderSize bytes) into the
// payload length and checksum it declares. Exported for the artifact
// verifier, which must locate a frame before it may believe it.
func ParseHeader(h []byte) (length int64, sum uint32) {
	return int64(binary.LittleEndian.Uint32(h)), binary.LittleEndian.Uint32(h[4:])
}

// Checksum returns the frame checksum of a payload.
func Checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// TailPolicy says what a Reader makes of damage that reaches the end of the
// stream; see the package comment.
type TailPolicy int

const (
	Strict           TailPolicy = iota // every irregularity is a *CorruptError
	TolerateTornTail                   // a damaged tail is dropped and flagged
)

// Reader walks the frames of a stream of known size, tracking the byte
// offset for corruption reports. It reuses one payload buffer, never grown
// beyond max or beyond the bytes the stream still holds.
type Reader struct {
	r      io.Reader
	size   int64
	path   string
	max    int64
	policy TailPolicy

	off  int64
	torn bool
	hdr  [HeaderSize]byte
	buf  []byte
}

// NewReader reads frames from the first size bytes of r. path names the
// stream in errors; max bounds a payload.
func NewReader(r io.Reader, size int64, path string, max int, policy TailPolicy) *Reader {
	return &Reader{r: r, size: size, path: path, max: int64(max), policy: policy}
}

// NewFileReader reads frames, buffered, from an open file of its present
// size; errors name the file as it was opened.
func NewFileReader(f *os.File, max int, policy TailPolicy) (*Reader, error) {
	fr := &Reader{max: int64(max), policy: policy}
	if err := fr.ResetFile(f); err != nil {
		return nil, err
	}
	return fr, nil
}

// ResetFile points the reader at the start of another open file, as
// NewFileReader would with the same max and policy, but keeps its read
// buffer and payload buffer.
func (fr *Reader) ResetFile(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("framing: %w", err)
	}
	br, ok := fr.r.(*bufio.Reader)
	if ok {
		br.Reset(f)
	} else {
		br = bufio.NewReaderSize(f, 1<<16)
	}
	*fr = Reader{r: br, size: st.Size(), path: f.Name(), max: fr.max, policy: fr.policy, buf: fr.buf}
	return nil
}

// Offset returns the bytes consumed so far: the magic and every frame
// delivered.
func (fr *Reader) Offset() int64 { return fr.off }

// Torn reports that a tolerated torn tail was dropped.
func (fr *Reader) Torn() bool { return fr.torn }

// Corrupt names this stream in the error for damage at off, found by the
// Reader in a frame or by its caller in a checksum-clean payload.
func (fr *Reader) Corrupt(off int64, format string, args ...any) *CorruptError {
	return &CorruptError{Path: fr.path, Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// Magic consumes and checks the stream's leading magic; call it before the
// first Next. A stream that stops inside a correct magic is a tail like any
// other (io.EOF under TolerateTornTail); any wrong byte is a *CorruptError.
func (fr *Reader) Magic(want []byte) error {
	got := make([]byte, min(int64(len(want)), fr.size))
	if err := fr.readFull(got); err != nil {
		return err
	}
	if !bytes.HasPrefix(want, got) {
		return fr.Corrupt(0, "bad magic")
	}
	if len(got) < len(want) {
		_, _, err := fr.damaged(0, true, "stream ends inside the magic")
		return err
	}
	fr.off = int64(len(want))
	return nil
}

// Next returns the next frame's payload, valid only until the next call,
// and the offset the frame starts at. io.EOF marks the end of the stream:
// a frame boundary, or under TolerateTornTail a dropped tail (see Torn).
func (fr *Reader) Next() (payload []byte, off int64, err error) {
	off = fr.off
	rest := fr.size - off
	if rest == 0 {
		return nil, off, io.EOF
	}
	if rest < HeaderSize {
		return fr.damaged(off, true, "truncated frame header")
	}
	if err := fr.readFull(fr.hdr[:]); err != nil {
		return nil, off, err
	}
	length, sum := ParseHeader(fr.hdr[:])
	end := off + HeaderSize + length
	if length > fr.max {
		// A garbage length from a torn header almost always points past the
		// end, which makes it a tail; one that fits was written that way.
		return fr.damaged(off, end > fr.size, "frame length %d exceeds maximum %d", length, fr.max)
	}
	if end > fr.size {
		return fr.damaged(off, true, "truncated frame payload")
	}
	if int64(cap(fr.buf)) < length {
		fr.buf = make([]byte, length)
	}
	fr.buf = fr.buf[:length]
	if err := fr.readFull(fr.buf); err != nil {
		return nil, off, err
	}
	if Checksum(fr.buf) != sum {
		return fr.damaged(off, end == fr.size, "frame checksum mismatch")
	}
	fr.off = end
	return fr.buf, off, nil
}

// damaged applies the tail policy to damage in the frame at off: damage
// that reaches the end of the stream (atTail) is a torn tail where those are
// tolerated, and a *CorruptError everywhere else.
func (fr *Reader) damaged(off int64, atTail bool, format string, args ...any) ([]byte, int64, error) {
	if fr.policy == TolerateTornTail && atTail {
		fr.torn = off < fr.size // an empty stream has no tail to drop
		return nil, off, io.EOF
	}
	return nil, off, fr.Corrupt(off, format, args...)
}

// readFull fills p. The size was checked first, so coming up short is an
// I/O failure, not framing damage, and is never reported as io.EOF.
func (fr *Reader) readFull(p []byte) error {
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("framing: reading %s: %w", fr.path, err)
	}
	return nil
}

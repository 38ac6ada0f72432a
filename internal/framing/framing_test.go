package framing

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

var testMagic = []byte("TESTMAG1")

const testMax = 1 << 10

// encode writes a magic and one frame per payload, and returns the stream
// with the offset of every frame followed by the stream's length.
func encode(tb testing.TB, payloads ...[]byte) (stream []byte, offs []int64) {
	tb.Helper()
	buf := bytes.NewBuffer(append([]byte(nil), testMagic...))
	for _, p := range payloads {
		offs = append(offs, int64(buf.Len()))
		if _, err := Write(buf, testMax, p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), append(offs, int64(buf.Len()))
}

// readAll walks a stream to its end under one policy, copying out every
// payload delivered.
func readAll(data []byte, policy TailPolicy) (frames [][]byte, fr *Reader, err error) {
	fr = NewReader(bytes.NewReader(data), int64(len(data)), "test", testMax, policy)
	if err = fr.Magic(testMagic); err != nil {
		return nil, fr, err
	}
	for {
		p, _, err := fr.Next()
		if err != nil {
			return frames, fr, err
		}
		frames = append(frames, append([]byte(nil), p...))
	}
}

// outcome is what one walk of a damaged stream must come to: the frames
// delivered first, then either a clean end (torn or not) or a *CorruptError
// at an offset.
type outcome struct {
	frames  int
	torn    bool
	corrupt bool
	offset  int64
}

func (o outcome) String() string {
	if o.corrupt {
		return fmt.Sprintf("%d frames then *CorruptError at %d", o.frames, o.offset)
	}
	return fmt.Sprintf("%d frames then EOF (torn=%v)", o.frames, o.torn)
}

func check(t *testing.T, what string, data []byte, policy TailPolicy, payloads [][]byte, want outcome) {
	t.Helper()
	frames, fr, err := readAll(data, policy)
	got := outcome{frames: len(frames), torn: fr.Torn()}
	var ce *CorruptError
	switch {
	case errors.As(err, &ce):
		got.corrupt, got.offset = true, ce.Offset
		if ce.Path != "test" || ce.Reason == "" {
			t.Errorf("%s: error %v does not name its stream and reason", what, ce)
		}
	case err != io.EOF:
		t.Fatalf("%s: walk ended with %v", what, err)
	}
	if got != want {
		t.Errorf("%s: %v, want %v", what, got, want)
	}
	for i, f := range frames {
		if !bytes.Equal(f, payloads[i]) {
			t.Errorf("%s: frame %d = %q, want %q", what, i, f, payloads[i])
		}
	}
	if fr.Offset() > int64(len(data)) {
		t.Errorf("%s: offset %d past the %d-byte stream", what, fr.Offset(), len(data))
	}
}

// TestTailPolicy is the table both policies are held to: a three-frame
// stream cut at every byte and with a bit flipped in every byte. Strict
// refuses at the damaged frame's offset. TolerateTornTail delivers the
// intact prefix and flags the tear when the damage reaches the end of the
// stream, and refuses like Strict when good bytes follow it.
func TestTailPolicy(t *testing.T) {
	payloads := [][]byte{[]byte("first frame"), {}, []byte("the third and final frame")}
	stream, offs := encode(t, payloads...)
	last := len(payloads) - 1

	// frameAt returns the index of the frame holding byte i, or -1 in the magic.
	frameAt := func(i int) int {
		k := -1
		for k+1 < len(payloads) && int64(i) >= offs[k+1] {
			k++
		}
		return k
	}

	t.Run("clean", func(t *testing.T) {
		for _, policy := range []TailPolicy{Strict, TolerateTornTail} {
			check(t, "whole stream", stream, policy, payloads, outcome{frames: 3})
		}
	})

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut < len(stream); cut++ {
			what := fmt.Sprintf("cut at %d", cut)
			k := frameAt(cut)
			if k >= 0 && int64(cut) == offs[k] {
				// Cut at a frame boundary: a shorter, whole stream. Whether
				// it may end there is the format's business, not the frame's.
				check(t, what, stream[:cut], Strict, payloads, outcome{frames: k})
				check(t, what, stream[:cut], TolerateTornTail, payloads, outcome{frames: k})
				continue
			}
			intact, off := max(k, 0), int64(0)
			if k >= 0 {
				off = offs[k]
			}
			check(t, what+" strict", stream[:cut], Strict, payloads,
				outcome{frames: intact, corrupt: true, offset: off})
			check(t, what+" tolerate", stream[:cut], TolerateTornTail, payloads,
				outcome{frames: intact, torn: cut > 0})
		}
	})

	t.Run("flip", func(t *testing.T) {
		for i := range stream {
			mut := append([]byte(nil), stream...)
			mut[i] ^= 0x04
			what := fmt.Sprintf("flip in byte %d", i)
			k := frameAt(i)
			if k < 0 {
				for _, policy := range []TailPolicy{Strict, TolerateTornTail} {
					check(t, what, mut, policy, payloads, outcome{corrupt: true})
				}
				continue
			}
			refused := outcome{frames: k, corrupt: true, offset: offs[k]}
			check(t, what+" strict", mut, Strict, payloads, refused)

			want := refused
			if int64(i) >= offs[k]+4 {
				// Checksum word or payload: the frame keeps its extent and
				// fails its checksum, a tear only in the final frame.
				if k == last {
					want = outcome{frames: k, torn: true}
				}
			} else if length, _ := ParseHeader(mut[offs[k]:]); offs[k]+HeaderSize+length > offs[last+1] {
				// Length word: the frame now claims to run past the end of
				// the stream, wherever it sits.
				want = outcome{frames: k, torn: true}
			}
			check(t, what+" tolerate", mut, TolerateTornTail, payloads, want)
		}
	})

	t.Run("over-long length", func(t *testing.T) {
		// A length above the maximum is garbage. Pointing past the end of the
		// stream it is a torn header; fitting inside the stream it was
		// written that way, final frame or not.
		big := bytes.Repeat([]byte{'x'}, testMax+1)
		var buf bytes.Buffer
		buf.Write(stream)
		if _, err := Write(&buf, len(big), big); err != nil {
			t.Fatal(err)
		}
		fits := buf.Bytes()
		refused := outcome{frames: 3, corrupt: true, offset: offs[3]}
		check(t, "fits strict", fits, Strict, payloads, refused)
		check(t, "fits tolerate", fits, TolerateTornTail, payloads, refused)
		past := fits[:len(fits)-1]
		check(t, "past the end strict", past, Strict, payloads, refused)
		check(t, "past the end tolerate", past, TolerateTornTail, payloads, outcome{frames: 3, torn: true})
	})
}

// TestWriteBound: the encoder refuses what the reader would refuse, and
// writes nothing of it.
func TestWriteBound(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, 4, []byte("ab"), []byte("cde")); err == nil || !strings.Contains(err.Error(), "exceeds maximum 4") {
		t.Fatalf("five bytes under a four-byte bound: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame left %d bytes behind", buf.Len())
	}
	n, err := Write(&buf, 5, []byte("ab"), nil, []byte("cde"))
	if err != nil || n != HeaderSize+5 || buf.Len() != n {
		t.Fatalf("Write = %d, %v with %d bytes out", n, err, buf.Len())
	}
	length, sum := ParseHeader(buf.Bytes())
	if length != 5 || sum != Checksum([]byte("abcde")) || sum != 0x8587d865 {
		t.Errorf("header declares %d bytes, checksum %#x", length, sum)
	}
}

// TestShortStream: a stream that holds fewer bytes than its declared size is
// an I/O failure, reported as neither a clean end nor corruption.
func TestShortStream(t *testing.T) {
	stream, _ := encode(t, []byte("payload"))
	for _, policy := range []TailPolicy{Strict, TolerateTornTail} {
		fr := NewReader(bytes.NewReader(stream[:len(stream)-3]), int64(len(stream)), "test", testMax, policy)
		if err := fr.Magic(testMagic); err != nil {
			t.Fatal(err)
		}
		_, _, err := fr.Next()
		var ce *CorruptError
		if err == nil || err == io.EOF || errors.As(err, &ce) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("policy %d: short stream read gave %v", policy, err)
		}
	}
}

// FuzzFrameReader walks arbitrary bytes under both policies. A walk never
// panics, never holds a buffer beyond the declared maximum or the input,
// and delivers only frames that re-encode to the very bytes they were read
// from — so what it delivers is a prefix of a clean stream. The two
// policies differ only in what they make of the tail.
func FuzzFrameReader(f *testing.F) {
	stream, _ := encode(f, []byte("first frame"), nil, []byte("the third and final frame"))
	f.Add(stream)
	f.Add(stream[:len(stream)-5])
	f.Add(stream[:len(testMagic)+3])
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), testMagic...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		strict, sfr, serr := readAll(data, Strict)
		tolerant, tfr, terr := readAll(data, TolerateTornTail)

		for _, fr := range []*Reader{sfr, tfr} {
			if cap(fr.buf) > testMax || cap(fr.buf) > len(data) {
				t.Fatalf("payload buffer of %d bytes reading %d bytes under a %d-byte maximum", cap(fr.buf), len(data), testMax)
			}
		}
		if off := tfr.Offset(); off > 0 {
			if clean, _ := encode(t, tolerant...); !bytes.Equal(clean, data[:off]) {
				t.Fatalf("the %d frames delivered do not re-encode to the input's first %d bytes", len(tolerant), off)
			}
		} else if len(tolerant) > 0 {
			t.Fatalf("delivered %d frames without consuming a magic", len(tolerant))
		}
		if len(strict) != len(tolerant) {
			t.Fatalf("strict delivered %d frames, tolerant %d", len(strict), len(tolerant))
		}

		var sce, tce *CorruptError
		switch {
		case serr == io.EOF:
			// Whole stream: both agree, nothing torn.
			if terr != io.EOF || tfr.Torn() || sfr.Offset() != int64(len(data)) {
				t.Fatalf("strict read the stream whole; tolerant: %v, torn=%v, offsets %d/%d of %d",
					terr, tfr.Torn(), sfr.Offset(), tfr.Offset(), len(data))
			}
		case !errors.As(serr, &sce):
			t.Fatalf("strict walk ended with %v", serr)
		case terr == io.EOF:
			// An empty stream is the one tail with nothing in it to drop.
			if !tfr.Torn() && len(data) > 0 {
				t.Fatalf("strict refuses (%v) what tolerant reads as whole", serr)
			}
		case !errors.As(terr, &tce) || *tce != *sce:
			t.Fatalf("policies refuse differently:\n strict   %v\n tolerant %v", serr, terr)
		}
		if sfr.Torn() {
			t.Fatal("strict walk reported a torn tail")
		}
	})
}

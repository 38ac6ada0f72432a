package corpusstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// writeTestStore saves a small corpus and returns its directory and the
// shard path for the single country.
func writeTestStore(t *testing.T) (dir, shardPath string) {
	t.Helper()
	dir = t.TempDir()
	c := testCorpus(10, []string{"US"}, 40)
	if err := Save(dir, c, testOpts(8)); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "US.shard")
}

// streamView streams every shard of the store at dir through one view, on
// a registry of its own, and returns the first error with the number of
// corruptions the store counted.
func streamView(dir string, symbols bool) (error, int64) {
	reg := obs.NewRegistry()
	corruptions := reg.Counter("store.corruptions")
	st, err := Open(dir, &Options{Obs: reg})
	if err != nil {
		return err, corruptions.Value()
	}
	for _, cc := range st.Countries() {
		if symbols {
			err = st.stream(cc, &shardReader{dec: shardBlockDecoder{onBlock: func(*dataset.SymbolBlock) error { return nil }}})
		} else {
			err = st.StreamShard(cc, func(*dataset.Website) error { return nil })
		}
		if err != nil {
			break
		}
	}
	return err, corruptions.Value()
}

// streamAll streams the store through the row view and the symbol view and
// requires the two to agree on the outcome: for a damaged store, the same
// *CorruptError — path, offset and reason — and the same number of counted
// corruptions. Every test below asserts on the error it returns, so each
// damage case is a parity case too.
func streamAll(t *testing.T, dir string) error {
	t.Helper()
	rowErr, rowCount := streamView(dir, false)
	symErr, symCount := streamView(dir, true)
	if (rowErr == nil) != (symErr == nil) {
		t.Fatalf("views disagree: rows %v, symbols %v", rowErr, symErr)
	}
	var rowCE, symCE *CorruptError
	if errors.As(rowErr, &rowCE) != errors.As(symErr, &symCE) {
		t.Fatalf("views disagree on corruption: rows %v, symbols %v", rowErr, symErr)
	}
	if rowCE != nil && *rowCE != *symCE {
		t.Fatalf("views report different corruption:\n rows    %v\n symbols %v", rowCE, symCE)
	}
	if rowCount != symCount {
		t.Fatalf("store.corruptions: rows counted %d, symbols %d", rowCount, symCount)
	}
	return rowErr
}

// section returns one framed section as bytes.
func section(tb testing.TB, typ byte, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := writeSection(&buf, typ, payload, nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sections returns the byte offset of every framed section of a store file,
// then the file's length.
func sections(t testing.TB, whole []byte) []int {
	t.Helper()
	var offs []int
	off := len(shardMagic)
	for off < len(whole) {
		offs = append(offs, off)
		off += 8 + int(binary.LittleEndian.Uint32(whole[off:]))
	}
	if off != len(whole) {
		t.Fatalf("sections end at %d of %d bytes", off, len(whole))
	}
	return append(offs, off)
}

// rewriteSection re-frames the first section of the given type with a
// mutated payload, keeping every CRC valid so that only a semantic check
// can reject the file. It returns the section's offset.
func rewriteSection(t testing.TB, path string, typ byte, mutate func(payload []byte) []byte) int {
	t.Helper()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := sections(t, whole)
	for i, off := range offs[:len(offs)-1] {
		if whole[off+8] != typ {
			continue
		}
		payload := append([]byte(nil), whole[off+9:offs[i+1]]...)
		out := append([]byte(nil), whole[:off]...)
		out = append(out, section(t, typ, mutate(payload))...)
		out = append(out, whole[offs[i+1]:]...)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return off
	}
	t.Fatalf("%s has no %q section", path, typ)
	return 0
}

// rewriteJSON is rewriteSection for the JSON sections: decode, mutate,
// encode.
func rewriteJSON[T any](t *testing.T, path string, typ byte, mutate func(*T)) int {
	t.Helper()
	return rewriteSection(t, path, typ, func(payload []byte) []byte {
		var v T
		if err := json.Unmarshal(payload, &v); err != nil {
			t.Fatal(err)
		}
		mutate(&v)
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func wantCorrupt(t *testing.T, err error, offsetAtLeast int64, reasonFragment string) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Offset < offsetAtLeast {
		t.Errorf("corruption offset %d, want >= %d", ce.Offset, offsetAtLeast)
	}
	if reasonFragment != "" && !strings.Contains(ce.Reason, reasonFragment) {
		t.Errorf("reason %q does not mention %q", ce.Reason, reasonFragment)
	}
}

// TestTruncatedShard covers torn tails at every interesting boundary: a
// store shard is written atomically, so ANY truncation is hard corruption
// (unlike the checkpoint journal's tolerated torn tail).
func TestTruncatedShard(t *testing.T) {
	dir, shard := writeTestStore(t)
	whole, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{len(whole) - 1, len(whole) - 9, len(whole) / 2, 10, 4}
	offs := sections(t, whole)
	for _, off := range offs[:len(offs)-1] {
		// Just short of each section, exactly at it, and inside its frame.
		cuts = append(cuts, off-1, off, off+5)
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			if err := os.WriteFile(shard, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			var ce *CorruptError
			if err := streamAll(t, dir); !errors.As(err, &ce) {
				t.Fatalf("truncation at %d not detected: %v", cut, err)
			}
		})
	}
	if err := os.WriteFile(shard, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := streamAll(t, dir); err != nil {
		t.Fatalf("restored shard should stream clean: %v", err)
	}
}

// TestCorruptShardMidFile flips one byte in the middle of the shard and
// checks the checksum failure is reported with a byte offset inside the
// file, not just "corrupt".
func TestCorruptShardMidFile(t *testing.T) {
	dir, shard := writeTestStore(t)
	whole, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), whole...)
	mut[len(mut)/2] ^= 0xFF
	if err := os.WriteFile(shard, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	err = streamAll(t, dir)
	wantCorrupt(t, err, int64(len(shardMagic)), "")
	var ce *CorruptError
	errors.As(err, &ce)
	if ce.Offset >= int64(len(whole)) {
		t.Errorf("offset %d outside file of %d bytes", ce.Offset, len(whole))
	}
	if ce.Path != shard {
		t.Errorf("corruption names %q, want %q", ce.Path, shard)
	}
}

func TestCorruptTrailingGarbage(t *testing.T) {
	dir, shard := writeTestStore(t)
	f, err := os.OpenFile(shard, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage after end marker")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantCorrupt(t, streamAll(t, dir), 0, "")
}

func TestBadMagic(t *testing.T) {
	dir, shard := writeTestStore(t)
	whole, _ := os.ReadFile(shard)
	copy(whole, "NOTASHRD")
	if err := os.WriteFile(shard, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, streamAll(t, dir), 0, "bad magic")
}

// TestForeignShardRefused pins the refusal semantics: a shard from another
// format version, another epoch, or another country — CRC-clean, so only
// the header cross-check can catch it — must not stream.
func TestForeignShardRefused(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*shardHeader)
		reason string
	}{
		{"version", func(h *shardHeader) { h.Version = 2 }, "version 2"},
		{"epoch", func(h *shardHeader) { h.Epoch = "2031-01" }, "epoch"},
		{"country", func(h *shardHeader) { h.Country = "DE" }, "country"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, shard := writeTestStore(t)
			rewriteJSON(t, shard, secHeader, tc.mutate)
			wantCorrupt(t, streamAll(t, dir), int64(len(shardMagic)), tc.reason)
		})
	}
}

func TestManifestVersionRefused(t *testing.T) {
	dir, _ := writeTestStore(t)
	rewriteJSON(t, filepath.Join(dir, ManifestName), secHeader, func(m *manifest) { m.Version = 2 })
	_, err := Open(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("foreign manifest version not refused: %v", err)
	}
}

// TestManifestRowMismatch: a shard that is whole and self-consistent but
// holds a different number of rows than the manifest records is refused
// after the last byte, by both views.
func TestManifestRowMismatch(t *testing.T) {
	dir, shard := writeTestStore(t)
	rewriteJSON(t, filepath.Join(dir, ManifestName), secHeader, func(m *manifest) { m.Shards[0].Rows++ })
	whole, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	wantCorrupt(t, streamAll(t, dir), int64(len(whole)), "manifest records 41")
}

// TestEndMarkerMismatch rewrites the shard's end marker with wrong totals;
// the decoded counts must win and flag the inconsistency.
func TestEndMarkerMismatch(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*shardEnd)
		reason string
	}{
		{"rows", func(e *shardEnd) { e.Rows = 9999 }, "end marker declares 9999 rows"},
		{"symbols", func(e *shardEnd) { e.Symbols++ }, "symbols, shard decoded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, shard := writeTestStore(t)
			off := rewriteJSON(t, shard, secEnd, tc.mutate)
			wantCorrupt(t, streamAll(t, dir), int64(off), tc.reason)
		})
	}
}

// writeDuplicateNameStore saves one country whose first block interns
// "HostA" and "HostB", then renames "HostB" in the block's symbol table,
// every CRC kept valid: the shard names "HostA" under two IDs, which no
// writer does. It returns the store's directory and the block's offset.
func writeDuplicateNameStore(tb testing.TB) (dir string, off int) {
	tb.Helper()
	dir = tb.TempDir()
	c := dataset.NewCorpus("2023-05")
	c.Add(&dataset.CountryList{Country: "US", Epoch: "2023-05", Sites: []dataset.Website{
		{Domain: "a.com", Country: "US", Rank: 1, HostProvider: "HostA", DNSProvider: "HostB"},
		{Domain: "b.com", Country: "US", Rank: 2, HostProvider: "HostB", DNSProvider: "HostA"},
	}})
	if err := Save(dir, c, testOpts(8)); err != nil {
		tb.Fatal(err)
	}
	off = rewriteSection(tb, filepath.Join(dir, "US.shard"), secBlock, func(p []byte) []byte {
		return bytes.Replace(p, []byte("HostB"), []byte("HostA"), 1)
	})
	return dir, off
}

// TestCorruptBlockContents damages what is inside a checksum-clean block.
// These are the checks the symbol view could most easily lose, because it
// keeps nothing of the columns they guard: a symbol out of range in a
// column it skips, bytes after the last column, and a row with no domain.
func TestCorruptBlockContents(t *testing.T) {
	t.Run("symbol out of range in a skipped column", func(t *testing.T) {
		dir, shard := writeTestStore(t)
		// The last byte of a block is the last row's Language symbol.
		off := rewriteSection(t, shard, secBlock, func(p []byte) []byte {
			p[len(p)-1] = 0x7f
			return p
		})
		wantCorrupt(t, streamAll(t, dir), int64(off), "symbol 127 out of range")
	})
	t.Run("symbol named twice", func(t *testing.T) {
		dir, off := writeDuplicateNameStore(t)
		wantCorrupt(t, streamAll(t, dir), int64(off), `symbol "HostA" is already in the shard's table`)
	})
	t.Run("trailing bytes", func(t *testing.T) {
		dir, shard := writeTestStore(t)
		off := rewriteSection(t, shard, secBlock, func(p []byte) []byte { return append(p, 0) })
		wantCorrupt(t, streamAll(t, dir), int64(off), "1 trailing bytes")
	})
	t.Run("empty domain", func(t *testing.T) {
		// No writer entry point lets such a row through, so save the rows
		// with a domain, then encode them without it over the saved shard.
		dir := t.TempDir()
		rows := []dataset.Website{
			{Domain: "a.com", Country: "US", Rank: 1},
			{Domain: "b.com", Country: "US", Rank: 2},
			{Domain: "c.com", Country: "US", Rank: 3},
		}
		c := dataset.NewCorpus("2023-05")
		c.Add(&dataset.CountryList{Country: "US", Epoch: "2023-05", Sites: rows})
		if err := Save(dir, c, testOpts(8)); err != nil {
			t.Fatal(err)
		}
		rows[1].Domain = ""
		var shard bytes.Buffer
		var enc shardEncoder
		hdr := shardHeader{Version: Version, Epoch: "2023-05", Country: "US", BlockRows: 8}
		if err := enc.encode(&shard, hdr, rows); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "US.shard"), shard.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		wantCorrupt(t, streamAll(t, dir), int64(len(shardMagic)), "block row 1 has empty domain")
	})
}

// TestCorruptionCounted checks detection feeds the store.corruptions
// instrument.
func TestCorruptionCounted(t *testing.T) {
	dir, shard := writeTestStore(t)
	whole, _ := os.ReadFile(shard)
	if err := os.WriteFile(shard, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, &Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StreamShard("US", func(*dataset.Website) error { return nil }); err == nil {
		t.Fatal("corrupt shard streamed clean")
	}
	if got := reg.Counter("store.corruptions").Value(); got != 1 {
		t.Errorf("store.corruptions = %d, want 1", got)
	}
}

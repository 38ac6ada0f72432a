package corpusstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
)

// FuzzShardDecode drives the shard section decoder over arbitrary bytes,
// through both views. The decoder must never panic, never report success on
// anything but a well-formed shard, and classify every failure as a
// *CorruptError — the same guarantee operators get for bit rot on real
// shards. The two views must agree on everything but what they deliver:
// rows decoded, bytes consumed, and where and why a shard is refused. And
// whatever a block declares, the buffers a decoder keeps stay within a
// constant factor of the bytes it was given.
func FuzzShardDecode(f *testing.F) {
	// Seed with a genuine shard so the fuzzer starts from valid structure.
	dir := f.TempDir()
	c := testCorpus(3, []string{"US"}, 25)
	if err := Save(dir, c, testOpts(6)); err != nil {
		f.Fatal(err)
	}
	shard, err := os.ReadFile(filepath.Join(dir, "US.shard"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shard)
	f.Add([]byte("WDEPSHD1"))
	f.Add(shard[:len(shard)/2])
	// A checksum-clean block that declares four billion new symbols and
	// rows in a payload of a dozen bytes.
	huge := binary.AppendUvarint(nil, 1<<32)
	huge = binary.AppendUvarint(huge, 1<<32)
	hdrEnd := 16 + int(binary.LittleEndian.Uint32(shard[8:]))
	f.Add(append(append([]byte(nil), shard[:hdrEnd]...), section(f, secBlock, huge)...))
	// A checksum-clean shard whose symbol table names one string twice.
	dupDir, _ := writeDuplicateNameStore(f)
	dup, err := os.ReadFile(filepath.Join(dupDir, "US.shard"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dup)

	f.Fuzz(func(t *testing.T, data []byte) {
		// decode runs the input through one view and returns the rows
		// decoded, the bytes consumed and the error.
		decode := func(dec *shardBlockDecoder) (int64, int64, error) {
			fr := framing.NewReader(bytes.NewReader(data), int64(len(data)), "fuzz", maxSectionBytes, framing.Strict)
			rows, err := decodeShard(fr, nil, dec)
			return rows, fr.Offset(), err
		}
		var delivered int64
		rowDec := &shardBlockDecoder{onRow: func(w *dataset.Website) error {
			if w.Domain == "" {
				t.Fatal("decoder delivered a row with empty domain")
			}
			delivered++
			return nil
		}}
		rows, consumed, err := decode(rowDec)

		var symDelivered int64
		symDec := &shardBlockDecoder{onBlock: func(b *dataset.SymbolBlock) error {
			for _, col := range b.Cols {
				if len(col) != b.Rows() {
					t.Fatalf("symbol column of %d IDs in a block of %d rows", len(col), b.Rows())
				}
				for _, id := range col {
					if int(id) >= len(b.Names) {
						t.Fatalf("decoder delivered symbol %d, table holds %d", id, len(b.Names))
					}
				}
			}
			symDelivered += int64(b.Rows())
			return nil
		}}
		symRows, symConsumed, symErr := decode(symDec)

		if rows != symRows || consumed != symConsumed {
			t.Fatalf("views disagree: rows decoded %d rows in %d bytes, symbols %d in %d",
				rows, consumed, symRows, symConsumed)
		}
		// A section costs at least its eight-byte frame, a symbol and a row
		// at least one payload byte each, and append at most doubles.
		for name, n := range map[string]int{
			"symbol table": cap(rowDec.syms), "row buffer": cap(rowDec.rows), "row view IDs": cap(rowDec.scratch),
			"symbol view table": cap(symDec.syms), "symbol view IDs": cap(symDec.scratch), "symbol column": cap(symDec.ids.Cols[0]),
		} {
			if n > 2*len(data) {
				t.Fatalf("%s grew to %d entries decoding %d bytes", name, n, len(data))
			}
		}
		if err == nil {
			if symErr != nil {
				t.Fatalf("row view accepted a shard the symbol view refuses: %v", symErr)
			}
			if rows != delivered || rows != symDelivered {
				t.Fatalf("decoder reported %d rows, delivered %d as rows and %d as symbols", rows, delivered, symDelivered)
			}
			if consumed != int64(len(data)) {
				t.Fatalf("decoder accepted %d of %d bytes without error", consumed, len(data))
			}
			return
		}
		var ce, symCE *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("decode failure is not a *CorruptError: %v", err)
		}
		if !errors.As(symErr, &symCE) || *ce != *symCE {
			t.Fatalf("views refuse differently:\n rows    %v\n symbols %v", err, symErr)
		}
	})
}

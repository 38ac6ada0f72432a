package corpusstore

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
)

// Store is an opened on-disk corpus: the manifest is resident, the shards
// are not. Reading is streamed — StreamShard and Score hold at most one
// decoded block per concurrently-read shard — and a Store is safe for
// concurrent use (every method opens its own file handles).
type Store struct {
	dir     string
	man     manifest
	byCC    map[string]manifestShard
	workers int
	m       *storeMetrics
}

// Open reads and validates a store's manifest. It refuses manifests written
// by a different format version and reports any framing damage as a
// *CorruptError with the byte offset.
func Open(dir string, opts *Options) (*Store, error) {
	opts = opts.orDefault()
	s := &Store{dir: dir, workers: opts.Workers, m: newStoreMetrics(opts.Obs)}
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("corpusstore: %s is not a store (no manifest): %w", dir, err)
	}
	defer f.Close()
	fr, err := framing.NewFileReader(f, maxSectionBytes, framing.Strict)
	if err != nil {
		return nil, err
	}
	if err := s.readManifest(fr); err != nil {
		return nil, s.noteCorrupt(err)
	}
	return s, nil
}

// readManifest fills s.man and s.byCC from a manifest file: magic, header,
// end marker, clean end of file.
func (s *Store) readManifest(fr *framing.Reader) error {
	if err := fr.Magic(manifestMagic); err != nil {
		return err
	}
	typ, payload, off, err := nextSection(fr, "manifest header")
	if err != nil {
		return err
	}
	if typ != secHeader {
		return fr.Corrupt(off, "expected header section, found %q", typ)
	}
	if err := json.Unmarshal(payload, &s.man); err != nil {
		return fr.Corrupt(off, "undecodable manifest header")
	}
	if s.man.Version != Version {
		return fmt.Errorf("corpusstore: %s holds store version %d; this build reads version %d",
			s.dir, s.man.Version, Version)
	}
	if s.man.Epoch == "" {
		return fr.Corrupt(off, "manifest has empty epoch")
	}
	s.byCC = make(map[string]manifestShard, len(s.man.Shards))
	for _, ms := range s.man.Shards {
		if _, dup := s.byCC[ms.Country]; dup {
			return fr.Corrupt(off, "duplicate shard entry for country %s", ms.Country)
		}
		want, err := shardFileName(ms.Country)
		if err != nil || ms.File != want {
			return fr.Corrupt(off, "shard entry %s names file %q", ms.Country, ms.File)
		}
		s.byCC[ms.Country] = ms
	}

	typ, payload, off, err = nextSection(fr, "manifest end marker")
	if err != nil {
		return err
	}
	var end manifestEnd
	if typ != secEnd || json.Unmarshal(payload, &end) != nil {
		return fr.Corrupt(off, "undecodable manifest end marker")
	}
	if end.Shards != len(s.man.Shards) {
		return fr.Corrupt(off, "end marker declares %d shards, manifest lists %d", end.Shards, len(s.man.Shards))
	}
	return endOfSections(fr, "manifest end marker")
}

// noteCorrupt counts corruption detections before handing the error back.
func (s *Store) noteCorrupt(err error) error {
	if _, ok := err.(*CorruptError); ok {
		s.m.corruptions.Inc()
	}
	return err
}

// Epoch returns the measurement epoch the store holds.
func (s *Store) Epoch() string { return s.man.Epoch }

// Countries returns the stored country codes in sorted order.
func (s *Store) Countries() []string {
	out := make([]string, 0, len(s.byCC))
	for cc := range s.byCC {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// Rows returns the row count the manifest records for a country, or -1 when
// the country is not in the store.
func (s *Store) Rows(cc string) int64 {
	ms, ok := s.byCC[cc]
	if !ok {
		return -1
	}
	return ms.Rows
}

// TotalSites returns the row count across all shards, from the manifest.
func (s *Store) TotalSites() int64 {
	var n int64
	for _, ms := range s.man.Shards {
		n += ms.Rows
	}
	return n
}

// Coverage returns the stored crawl-coverage accounting, or nil when the
// corpus was stored without one (synthetic worlds).
func (s *Store) Coverage() map[string]*dataset.Coverage { return s.man.Coverage }

// StreamShard decodes one country's shard row by row. The *dataset.Website
// passed to fn is reused across calls — fn must copy the value to retain
// it. The shard's header is cross-checked against the manifest (version,
// epoch, country), its end-marker totals against the rows actually decoded,
// and any mismatch, truncation, or checksum failure is a *CorruptError.
func (s *Store) StreamShard(cc string, fn func(*dataset.Website) error) error {
	return s.stream(cc, &shardReader{dec: shardBlockDecoder{onRow: fn}})
}

// shardReader is the read state of one shard stream: the file's frame
// reader and the block decoder. Scan gives each of its workers one and
// points it at every shard the worker reads, so the read buffer, the frame
// payload buffer, the symbol set, the symbol-ID columns and the scratch are
// allocated once per worker, not once per shard.
type shardReader struct {
	fr  *framing.Reader
	dec shardBlockDecoder
}

// stream opens one country's shard and drives it through rd. The shard's
// symbol table is always a fresh one — tallies keep the Names of the blocks
// they observed — and its set starts empty.
func (s *Store) stream(cc string, rd *shardReader) error {
	ms, ok := s.byCC[cc]
	if !ok {
		return fmt.Errorf("corpusstore: store has no shard for country %s", cc)
	}
	sp := obs.StartSpan(s.m.shardStreamMS)
	f, err := os.Open(filepath.Join(s.dir, ms.File))
	if err != nil {
		return err
	}
	defer f.Close()
	if rd.fr == nil {
		rd.fr, err = framing.NewFileReader(f, maxSectionBytes, framing.Strict)
	} else {
		err = rd.fr.ResetFile(f)
	}
	if err != nil {
		return err
	}
	fr := rd.fr
	rd.dec.syms = nil
	clear(rd.dec.seen)
	want := shardHeader{Version: Version, Epoch: s.man.Epoch, Country: cc}
	rows, err := decodeShard(fr, &want, &rd.dec)
	if err != nil {
		return s.noteCorrupt(err)
	}
	if rows != ms.Rows {
		return s.noteCorrupt(fr.Corrupt(fr.Offset(), "shard holds %d rows, manifest records %d", rows, ms.Rows))
	}
	sp.End()
	s.m.shardsStreamed.Inc()
	s.m.rowsStreamed.Add(rows)
	s.m.bytesStreamed.Add(fr.Offset())
	return nil
}

// ReadList materializes one country's shard as a CountryList, rows in
// stored (rank) order.
func (s *Store) ReadList(cc string) (*dataset.CountryList, error) {
	list := &dataset.CountryList{Country: cc, Epoch: s.man.Epoch}
	if n := s.Rows(cc); n > 0 {
		list.Sites = make([]dataset.Website, 0, n)
	}
	err := s.StreamShard(cc, func(w *dataset.Website) error {
		list.Sites = append(list.Sites, *w)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return list, nil
}

// Load materializes the whole store as an in-memory Corpus (countries read
// concurrently), including the stored coverage accounting. For stores too
// large to materialize, use Score or StreamShard instead.
func (s *Store) Load() (*dataset.Corpus, error) {
	ccs := s.Countries()
	lists, err := parallel.Map(context.Background(), s.workers, len(ccs),
		func(_ context.Context, i int) (*dataset.CountryList, error) {
			return s.ReadList(ccs[i])
		})
	if err != nil {
		return nil, err
	}
	c := dataset.NewCorpus(s.man.Epoch)
	c.Workers = s.workers
	for _, l := range lists {
		c.Add(l)
	}
	for _, cov := range s.man.Coverage {
		c.SetCoverage(cov)
	}
	return c, nil
}

// Scan is the dataset.Source contract over the store: it decodes every
// shard once in its symbol view — the seven provider columns as shard-local
// symbol IDs next to the shard's own name table, with no Website and no
// per-row string built — under the same parser and every check StreamShard
// makes, on every column, each country's blocks in stored order. Each
// worker reads all its shards through one shardReader, handed from a
// finished shard to the next through a channel private to this call: two
// scans share no buffer, and a finished scan keeps none.
func (s *Store) Scan(workers int, observe func(i int, cc string) func(*dataset.SymbolBlock)) error {
	ccs := s.Countries()
	// At most this many shards are read at once, so the channel never fills.
	idle := make(chan *shardReader, min(parallel.Workers(workers), len(ccs)))
	return parallel.ForEachIndexed(context.Background(), workers, len(ccs), func(_ context.Context, i int) error {
		var rd *shardReader
		select {
		case rd = <-idle:
		default:
			rd = new(shardReader)
		}
		defer func() { idle <- rd }()
		block := observe(i, ccs[i])
		rd.dec.onBlock = func(b *dataset.SymbolBlock) error {
			block(b)
			return nil
		}
		return s.stream(ccs[i], rd)
	})
}

// Score streams every shard's symbol columns into per-country tallies and
// merges them into a ScoreSet (dataset.ScanScores, as a Corpus builds its
// index) — the same frozen surface, with bit-identical numbers, while
// holding only one decoded block per concurrent shard plus the tallies.
func (s *Store) Score() (*dataset.ScoreSet, error) {
	sp := obs.StartSpan(s.m.scoreMS)
	ss, err := dataset.ScanScores(s, s.workers)
	if err != nil {
		return nil, err
	}
	sp.End()
	return ss, nil
}

// decodeShard drives one shard stream through dec: magic, header (validated
// against want when non-nil), row blocks, end marker, clean EOF. It
// returns the decoded row count; fr.Offset() is the byte length consumed. Every
// deviation from the format is a *CorruptError carrying the offset of the
// failing section; the decoder never panics and never allocates more than
// a constant factor of the (already CRC-validated) section it is decoding,
// which is what makes it safe to point at arbitrary bytes (FuzzShardDecode).
func decodeShard(fr *framing.Reader, want *shardHeader, dec *shardBlockDecoder) (rows int64, err error) {
	if err := fr.Magic(shardMagic); err != nil {
		return 0, err
	}
	typ, payload, off, err := nextSection(fr, "shard header")
	if err != nil {
		return 0, err
	}
	var hdr shardHeader
	if typ != secHeader || json.Unmarshal(payload, &hdr) != nil {
		return 0, fr.Corrupt(off, "undecodable shard header")
	}
	if hdr.Version != Version {
		return 0, fr.Corrupt(off, "shard version %d; this build reads version %d", hdr.Version, Version)
	}
	if want != nil {
		if hdr.Epoch != want.Epoch {
			return 0, fr.Corrupt(off, "shard holds epoch %q, store is epoch %q", hdr.Epoch, want.Epoch)
		}
		if hdr.Country != want.Country {
			return 0, fr.Corrupt(off, "shard holds country %q, expected %q", hdr.Country, want.Country)
		}
	}

	dec.country = hdr.Country
	for {
		typ, payload, off, err = nextSection(fr, "shard end marker")
		if err != nil {
			return rows, err
		}
		if typ == secEnd {
			break
		}
		if typ != secBlock {
			return rows, fr.Corrupt(off, "unexpected section type %q", typ)
		}
		n, err := dec.block(payload)
		if err != nil {
			if _, ok := err.(*CorruptError); !ok {
				err = fr.Corrupt(off, "%v", err)
			}
			return rows, err
		}
		rows += n
	}

	var end shardEnd
	if json.Unmarshal(payload, &end) != nil {
		return rows, fr.Corrupt(off, "undecodable shard end marker")
	}
	if end.Rows != rows {
		return rows, fr.Corrupt(off, "end marker declares %d rows, shard decoded %d", end.Rows, rows)
	}
	if end.Symbols != int64(len(dec.syms)) {
		return rows, fr.Corrupt(off, "end marker declares %d symbols, shard decoded %d", end.Symbols, len(dec.syms))
	}
	return rows, endOfSections(fr, "shard end marker")
}

// shardBlockDecoder decodes 'B' sections under one view, carrying the
// append-only symbol table and the view's reused block buffer across the
// shard's blocks. Memory is one decoded block plus the symbol table — never
// the shard. Exactly one of onRow and onBlock is set, and selects the view.
type shardBlockDecoder struct {
	country string
	syms    []string
	seen    map[string]struct{} // syms as a set: a shard names each string once

	// The row view: every column materialised into rows, delivered one by one.
	onRow func(*dataset.Website) error
	rows  []dataset.Website

	// The symbol view: the provider columns collected into ids, delivered whole.
	onBlock func(*dataset.SymbolBlock) error
	ids     dataset.SymbolBlock

	scratch []uint32 // IDs of the symbol column being materialised or skipped
}

// block parses one columnar block — the block's new symbols, its row
// count, then the columns in format order, each under its view action —
// and, once the whole block has validated, delivers it: row by row to
// onRow, or as one SymbolBlock to onBlock. Delivered values are reused
// across blocks. Errors that are not already *CorruptError are format
// violations the caller wraps with the block's offset.
func (d *shardBlockDecoder) block(payload []byte) (int64, error) {
	br := &byteReader{b: payload}

	nSyms, err := br.uvarint()
	if err != nil {
		return 0, err
	}
	// Each new symbol costs at least one payload byte (its length prefix),
	// so a count beyond the payload is garbage, not a big table.
	if nSyms > uint64(br.remaining()) {
		return 0, fmt.Errorf("block declares %d new symbols in a %d-byte payload", nSyms, len(payload))
	}
	// IDs are uint32 everywhere they are kept; dataset.NoSymbol is not one.
	if uint64(len(d.syms))+nSyms > dataset.NoSymbol {
		return 0, fmt.Errorf("block grows the symbol table past %d entries", uint32(dataset.NoSymbol))
	}
	d.syms = slices.Grow(d.syms, int(nSyms))
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	for i := uint64(0); i < nSyms; i++ {
		s, err := br.str()
		if err != nil {
			return 0, err
		}
		if _, dup := d.seen[s]; dup {
			return 0, fmt.Errorf("symbol %q is already in the shard's table", s)
		}
		d.seen[s] = struct{}{}
		d.syms = append(d.syms, s)
	}

	nRows, err := br.uvarint()
	if err != nil {
		return 0, err
	}
	if nRows == 0 {
		return 0, fmt.Errorf("block declares zero rows")
	}
	if nRows > maxBlockRows {
		return 0, fmt.Errorf("block declares %d rows, maximum is %d", nRows, maxBlockRows)
	}
	// The rank column spends at least one byte per row, bounding every
	// per-row buffer by the payload size before anything is allocated.
	if nRows > uint64(br.remaining()) {
		return 0, fmt.Errorf("block declares %d rows in a %d-byte payload", nRows, len(payload))
	}
	n := int(nRows)
	view := &symbolView
	if d.onRow != nil {
		view = &rowView
		if cap(d.rows) < n {
			d.rows = make([]dataset.Website, n)
		}
		d.rows = d.rows[:n]
	}

	emptyRow := -1 // first row whose required string is empty
	for c := range shardColumns {
		col, act := &shardColumns[c], view[c]
		switch col.kind {
		case kindRank:
			for i := 0; i < n; i++ {
				rank, err := br.uvarint()
				if err != nil {
					return 0, err
				}
				if act == actMaterialise {
					d.rows[i] = dataset.Website{Country: d.country, Rank: int(rank)}
				}
			}
		case kindStr:
			for i := 0; i < n; i++ {
				var empty bool
				if act == actMaterialise {
					s, err := br.str()
					if err != nil {
						return 0, err
					}
					*col.str(&d.rows[i]) = s
					empty = s == ""
				} else {
					size, err := br.skipStr()
					if err != nil {
						return 0, err
					}
					empty = size == 0
				}
				if empty && col.required && emptyRow < 0 {
					emptyRow = i
				}
			}
		case kindSym:
			ids := &d.scratch
			if act == actCollect {
				ids = &d.ids.Cols[col.sym]
			}
			if err := d.symbolIDs(br, n, ids); err != nil {
				return 0, err
			}
			if act == actMaterialise {
				for i, id := range *ids {
					*col.str(&d.rows[i]) = d.syms[id]
				}
			}
		case kindBool:
			bits, err := br.take((n + 7) / 8)
			if err != nil {
				return 0, err
			}
			if act == actMaterialise {
				for i := range d.rows {
					*col.flag(&d.rows[i]) = bits[i/8]&(1<<(i%8)) != 0
				}
			}
		}
	}
	if br.remaining() != 0 {
		return 0, fmt.Errorf("block has %d trailing bytes", br.remaining())
	}
	if emptyRow >= 0 {
		return 0, fmt.Errorf("block row %d has empty domain", emptyRow)
	}

	if d.onRow == nil {
		d.ids.Names = d.syms
		return int64(n), d.onBlock(&d.ids)
	}
	for i := range d.rows {
		if err := d.onRow(&d.rows[i]); err != nil {
			return 0, err
		}
	}
	return int64(n), nil
}

// symbolIDs decodes one symbol column of n rows into *dst, reusing its
// backing array, and checks every ID against the symbol table — the one
// decode every symbol column goes through, whatever its action.
func (d *shardBlockDecoder) symbolIDs(br *byteReader, n int, dst *[]uint32) error {
	ids := *dst
	if cap(ids) < n {
		ids = make([]uint32, n)
	}
	ids = ids[:n]
	*dst = ids
	limit := uint64(len(d.syms))
	for i := range ids {
		v, err := br.uvarint()
		if err != nil {
			return err
		}
		if v >= limit {
			return fmt.Errorf("symbol %d out of range (table holds %d)", v, len(d.syms))
		}
		ids[i] = uint32(v)
	}
	return nil
}

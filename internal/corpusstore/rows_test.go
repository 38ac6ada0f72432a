package corpusstore

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
)

// writeShard writes one shard through append and returns its bytes.
func writeShard(t *testing.T, cc string, blockRows int, append func(*Writer) error) []byte {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, "2023-05", testOpts(blockRows))
	if err != nil {
		t.Fatal(err)
	}
	if err := append(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, cc+".shard"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendRowsMatchesAppendList: the shard's symbol IDs come from the
// order the columns first use a name, never from the dictionary, so Rows
// over a dictionary in another order, padded with names no row uses, write
// the bytes AppendList writes for the same rows.
func TestAppendRowsMatchesAppendList(t *testing.T) {
	list := testCorpus(5, []string{"US"}, 300).Get("US")
	for _, blockRows := range []int{1, 7, 0} {
		want := writeShard(t, "US", blockRows, func(w *Writer) error { return w.AppendList(list) })

		// The list's names, reversed, behind two names no row has.
		var enc shardEncoder
		listed, err := enc.listRows("US", list.Sites)
		if err != nil {
			t.Fatal(err)
		}
		names := append([]string{"unused-a", "unused-b"}, listed.Names...)
		slices.Reverse(names[2:])
		id := map[string]uint32{}
		for i, s := range names {
			id[s] = uint32(i)
		}
		// The addresses go in as netip.Addr, as the ingest appends them.
		addr := func(s string) netip.Addr {
			if s == "" {
				return netip.Addr{}
			}
			return netip.MustParseAddr(s)
		}
		rows := &Rows{Names: names}
		rows.Resize(len(list.Sites))
		for i := range list.Sites {
			s := &list.Sites[i]
			rows.Rank[i], rows.Domain[i] = s.Rank, s.Domain
			rows.HostIP.AppendAddr(addr(s.HostIP))
			rows.NSIP.AppendAddr(addr(s.NSIP))
			rows.HostAnycast[i], rows.NSAnycast[i] = s.HostAnycast, s.NSAnycast
		}
		for c := range shardColumns {
			if col := &shardColumns[c]; col.kind == kindSym {
				for i := range list.Sites {
					col.ids(rows)[i] = id[*col.str(&list.Sites[i])]
				}
			}
		}
		got := writeShard(t, "US", blockRows, func(w *Writer) error { return w.AppendRows("US", rows) })
		if !bytes.Equal(got, want) {
			t.Errorf("blockRows=%d: AppendRows wrote %d bytes unlike AppendList's %d", blockRows, len(got), len(want))
		}
	}
}

// TestAppendRowsRefuses: rows the encoder cannot write or the decoder
// would refuse are refused before any file is made, and the country can
// still be appended afterwards.
func TestAppendRowsRefuses(t *testing.T) {
	good := func() *Rows {
		r := &Rows{Names: []string{"", "com"}}
		r.Resize(2)
		for range 2 {
			r.HostIP.AppendAddr(netip.Addr{})
			r.NSIP.AppendAddr(netip.MustParseAddr("192.0.2.1"))
		}
		r.Rank[0], r.Rank[1] = 1, 2
		r.Domain[0], r.Domain[1] = "a.com", "b.com"
		r.TLD[0], r.TLD[1] = 1, 1
		return r
	}
	for name, spoil := range map[string]func(*Rows){
		"symbol outside the dictionary": func(r *Rows) { r.CAOwner[1] = 2 },
		"short column":                  func(r *Rows) { r.NSIP.reset(1); r.NSIP.AppendAddr(netip.Addr{}) },
		"empty domain":                  func(r *Rows) { r.Domain[1] = "" },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, "2023-05", testOpts(0))
			if err != nil {
				t.Fatal(err)
			}
			bad := good()
			spoil(bad)
			if err := w.AppendRows("US", bad); err == nil {
				t.Fatal("refused rows accepted")
			}
			if got := dirNames(t, dir); len(got) != 0 {
				t.Fatalf("a refused shard left %v", got)
			}
			if err := w.AppendRows("US", good()); err != nil {
				t.Fatalf("appending the country after a refusal: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAppendListAddressText: AppendList copies an address field's text
// as it is, a zone long enough to need a two-byte length and a spelling
// netip.Addr.String would not write included.
func TestAppendListAddressText(t *testing.T) {
	sites := []dataset.Website{
		{Domain: "a.com", Country: "US", Rank: 1, HostIP: "192.0.2.1", NSIP: "2001:db8::1"},
		{Domain: "b.com", Country: "US", Rank: 2, HostIP: "::ffff:192.0.2.1", NSIP: "fe80::1%" + strings.Repeat("z", 150)},
		{Domain: "c.com", Country: "US", Rank: 3, HostIP: "2001:DB8:0::1"},
	}
	dir := t.TempDir()
	w, err := Create(dir, "2023-05", testOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendList(&dataset.CountryList{Country: "US", Epoch: "2023-05", Sites: sites}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadList("US")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sites, sites) {
		t.Errorf("read back %+v, wrote %+v", got.Sites, sites)
	}
}

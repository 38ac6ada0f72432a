package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
)

// FuzzJournalInspect points the journal walker at arbitrary bytes by both
// of its doors — InspectBytes over the slice, StreamSites over the same
// bytes on disk — and requires one verdict: the same header, sites and
// truncation, or the same *CorruptError (path aside, since the slice has
// only the name it is given). Neither may panic or fail any other way.
func FuzzJournalInspect(f *testing.F) {
	whole := inspectJournalBytes(f, 3)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add(whole[:len(magic)+3])
	f.Add([]byte{})
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	// A checksum-clean record that is not a site record.
	junk, err := record([]byte(`[1,2,3]`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), whole...), junk...))

	path := filepath.Join(f.TempDir(), "fuzz.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		inspected, ierr := InspectBytes(data, "bytes")

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var sites int64
		streamed, serr := StreamSites(path, nil, func(string, dataset.Website, dataset.SiteOutcome) error {
			sites++
			return nil
		})

		if ierr == nil && serr == nil {
			if !reflect.DeepEqual(inspected, streamed) {
				t.Fatalf("verdicts differ:\n bytes %+v\n file  %+v", inspected, streamed)
			}
			if sites != streamed.Sites {
				t.Fatalf("StreamSites counted %d sites, delivered %d", streamed.Sites, sites)
			}
			return
		}
		var ice, sce *CorruptError
		if !errors.As(ierr, &ice) || !errors.As(serr, &sce) {
			t.Fatalf("not both typed corruption:\n bytes %v\n file  %v", ierr, serr)
		}
		if ice.Path != "bytes" || sce.Path != path || ice.Offset != sce.Offset || ice.Reason != sce.Reason {
			t.Fatalf("refusals differ:\n bytes %v\n file  %v", ice, sce)
		}
	})
}

// TestRecordBound: the append path's encoder refuses a record beyond the
// bound the journal's readers enforce — written, it would read back as
// corruption and take every later record with it. Append disarms on that
// error as on any other encoding failure.
func TestRecordBound(t *testing.T) {
	if _, err := record(make([]byte, maxRecordBytes+1)); err == nil || !strings.Contains(err.Error(), "exceeds maximum") {
		t.Fatalf("record one byte over the bound: %v", err)
	}
	rec, err := record(make([]byte, maxRecordBytes))
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectBytes(append(append([]byte(nil), magic...), rec...), "bound")
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "undecodable header") {
		t.Fatalf("a record at the bound must pass the framer and reach the decoder: %+v, %v", info, err)
	}
}

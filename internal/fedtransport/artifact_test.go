package fedtransport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
)

const (
	artEpoch = "2023-05"
)

var (
	artCCs = []string{"CZ", "TH"}
	artKey = []byte("test-vantage-key")
)

// testJournal builds a real shard journal through the production writer
// and returns its bytes.
func testJournal(t *testing.T, worker string, gen, sites int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("%s-g%d.journal", worker, gen))
	sh := &checkpoint.ShardInfo{Worker: worker, Index: 0, Total: 2, Gen: gen}
	j, err := checkpoint.CreateShard(path, artEpoch, artCCs, sh, &checkpoint.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sites; i++ {
		j.Append("TH", dataset.Website{Domain: fmt.Sprintf("d%d.th", i), Country: "TH", Rank: i + 1},
			dataset.SiteOutcome{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusOK, Language: dataset.StatusOK})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// signedArtifact signs a journal through the production writer.
func signedArtifact(t *testing.T, key []byte, meta Meta, journal []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, key, meta, int64(len(journal)), bytes.NewReader(journal)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawArtifact hand-assembles an envelope around arbitrary meta JSON, with
// a genuine HMAC — for forging contents WriteArtifact refuses to produce.
func rawArtifact(key, metaJSON, journal []byte) []byte {
	var buf bytes.Buffer
	buf.Write(artifactMagic)
	framing.Write(&buf, maxMetaBytes, metaJSON)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(journal)))
	buf.Write(lenBuf[:])
	buf.Write(journal)
	mac := hmac.New(sha256.New, key)
	mac.Write(buf.Bytes())
	return mac.Sum(buf.Bytes())
}

func wantRefusal(t *testing.T, err error, kind RefusalKind) {
	t.Helper()
	var re *RefusalError
	if !errors.As(err, &re) {
		t.Fatalf("got %T (%v), want *RefusalError", err, err)
	}
	if re.Kind != kind {
		t.Fatalf("refused as %q (%v), want %q", re.Kind, re, kind)
	}
}

func artExpect(worker string, gen int) Expect {
	return Expect{Key: artKey, Worker: worker, Gen: gen, Epoch: artEpoch, Countries: artCCs}
}

func TestArtifactRoundTrip(t *testing.T) {
	journal := testJournal(t, "w0", 1, 3)
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, journal)
	art, err := VerifyArtifact(data, artExpect("w0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(art.Journal, journal) {
		t.Error("verified journal bytes differ from the signed input")
	}
	if art.Meta.Worker != "w0" || art.Meta.Gen != 1 || art.Meta.Disarmed {
		t.Errorf("meta = %+v", art.Meta)
	}
	if art.Info == nil || art.Info.Sites != 3 || art.Info.Shard == nil || art.Info.Shard.Worker != "w0" {
		t.Errorf("info = %+v, want the journal's 3 sites and shard descriptor", art.Info)
	}
}

// TestArtifactRefusesForgery pins that any unauthenticated tampering —
// wrong key, or a bit flip anywhere under the signature — refuses as
// forged, before any of the tampered content is parsed.
func TestArtifactRefusesForgery(t *testing.T) {
	journal := testJournal(t, "w0", 1, 2)
	meta := Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}
	data := signedArtifact(t, artKey, meta, journal)

	_, err := VerifyArtifact(signedArtifact(t, []byte("the-wrong-key"), meta, journal), artExpect("w0", 1))
	wantRefusal(t, err, RefusedForged)

	// Flip one bit in every signed payload region: the meta JSON, the
	// journal body, and the MAC trailer itself. (A flip in a structural
	// length field instead garbles the envelope's geometry and refuses as
	// truncated or corrupt — still refused, just attributed differently.)
	for _, off := range []int{len(artifactMagic) + 8 + 2, len(artifactMagic) + 8 + 20, len(data) - macSize - 10, len(data) - 1} {
		tampered := append([]byte(nil), data...)
		tampered[off] ^= 0x01
		if _, err := VerifyArtifact(tampered, artExpect("w0", 1)); err == nil {
			t.Fatalf("bit flip at offset %d verified", off)
		} else {
			wantRefusal(t, err, RefusedForged)
		}
	}

	// A flipped magic byte is not even an artifact.
	tampered := append([]byte(nil), data...)
	tampered[0] ^= 0x01
	_, err = VerifyArtifact(tampered, artExpect("w0", 1))
	wantRefusal(t, err, RefusedCorrupt)
}

// TestArtifactTruncationSweep cuts a valid artifact at EVERY byte offset:
// each cut must refuse as truncated — never verify, never panic, never
// misreport as another kind.
func TestArtifactTruncationSweep(t *testing.T) {
	journal := testJournal(t, "w0", 1, 2)
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, journal)
	for cut := 0; cut < len(data); cut++ {
		if _, err := VerifyArtifact(data[:cut], artExpect("w0", 1)); err == nil {
			t.Fatalf("cut at %d of %d verified", cut, len(data))
		} else {
			wantRefusal(t, err, RefusedTruncated)
		}
	}
	_, err := VerifyArtifact(append(append([]byte(nil), data...), 0xAB), artExpect("w0", 1))
	wantRefusal(t, err, RefusedCorrupt)
}

// TestArtifactRefusesReplay pins the stale-generation and cross-worker
// replay defenses: a genuine artifact presented against the wrong dispatch
// refuses as replayed.
func TestArtifactRefusesReplay(t *testing.T) {
	journal := testJournal(t, "w0", 1, 2)
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, journal)

	// Yesterday's generation replayed as today's.
	_, err := VerifyArtifact(data, artExpect("w0", 2))
	wantRefusal(t, err, RefusedReplayed)
	// One worker's artifact replayed as another's.
	_, err = VerifyArtifact(data, artExpect("w1", 1))
	wantRefusal(t, err, RefusedReplayed)

	// A vantage signing one identity around a journal claiming another: the
	// signed meta matches the dispatch, the embedded shard descriptor does
	// not.
	lied := signedArtifact(t, artKey, Meta{Worker: "w1", Gen: 1, Epoch: artEpoch, Countries: artCCs}, journal)
	_, err = VerifyArtifact(lied, artExpect("w1", 1))
	wantRefusal(t, err, RefusedReplayed)
}

func TestArtifactRefusesForeign(t *testing.T) {
	journal := testJournal(t, "w0", 1, 1)
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, journal)

	exp := artExpect("w0", 1)
	exp.Epoch = "2024-01"
	_, err := VerifyArtifact(data, exp)
	wantRefusal(t, err, RefusedForeign)

	exp = artExpect("w0", 1)
	exp.Countries = []string{"CZ", "US"}
	_, err = VerifyArtifact(data, exp)
	wantRefusal(t, err, RefusedForeign)

	// An envelope version this build does not read.
	raw := rawArtifact(artKey, []byte(`{"version":99,"worker":"w0","gen":1,"epoch":"2023-05","countries":["CZ","TH"]}`), journal)
	_, err = VerifyArtifact(raw, artExpect("w0", 1))
	wantRefusal(t, err, RefusedForeign)
}

// TestArtifactRefusesSignedCorruption pins the RefusedCorrupt kind: the
// signature verifies, so the damage is the vantage's own — a corrupt
// embedded journal, undecodable meta, or a headerless journal with no
// disarm to excuse it.
func TestArtifactRefusesSignedCorruption(t *testing.T) {
	journal := testJournal(t, "w0", 1, 3)

	// The vantage signed a journal with a damaged interior.
	bad := append([]byte(nil), journal...)
	bad[len(bad)/2] ^= 0xFF
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, bad)
	_, err := VerifyArtifact(data, artExpect("w0", 1))
	wantRefusal(t, err, RefusedCorrupt)

	// Signed meta that does not decode.
	raw := rawArtifact(artKey, []byte("{not json"), journal)
	_, err = VerifyArtifact(raw, artExpect("w0", 1))
	wantRefusal(t, err, RefusedCorrupt)

	// A headerless journal without a declared disarm is damage...
	headerless := journal[:4]
	data = signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs}, headerless)
	_, err = VerifyArtifact(data, artExpect("w0", 1))
	wantRefusal(t, err, RefusedCorrupt)

	// ...but WITH the disarm flag it is a legitimately dead worker's last
	// durable bytes, and must verify.
	data = signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs, Disarmed: true}, headerless)
	art, err := VerifyArtifact(data, artExpect("w0", 1))
	if err != nil {
		t.Fatalf("disarmed headerless artifact refused: %v", err)
	}
	if !art.Meta.Disarmed || art.Info.Sites != 0 {
		t.Errorf("art = meta %+v info %+v", art.Meta, art.Info)
	}
}

// TestArtifactDisarmedPartialJournal: a disarmed vantage ships the durable
// prefix of a real journal — header intact, tail torn — and it verifies
// with the truncation visible in the info.
func TestArtifactDisarmedPartialJournal(t *testing.T) {
	journal := testJournal(t, "w0", 1, 3)
	torn := journal[:len(journal)-5]
	data := signedArtifact(t, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch, Countries: artCCs, Disarmed: true}, torn)
	art, err := VerifyArtifact(data, artExpect("w0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !art.Info.Truncated || art.Info.Sites != 2 {
		t.Errorf("info = %+v, want 2 surviving sites and a torn tail", art.Info)
	}
}

func TestWriteArtifactRefusesLengthLie(t *testing.T) {
	journal := testJournal(t, "w0", 1, 1)
	var buf bytes.Buffer
	err := WriteArtifact(&buf, artKey, Meta{Worker: "w0", Gen: 1, Epoch: artEpoch},
		int64(len(journal)+7), bytes.NewReader(journal))
	if err == nil {
		t.Fatal("a journal shorter than its declared length was signed")
	}
	if err := WriteArtifact(&buf, nil, Meta{}, 0, bytes.NewReader(nil)); err == nil {
		t.Fatal("an empty signing key was accepted")
	}
}

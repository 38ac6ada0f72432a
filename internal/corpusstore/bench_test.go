package corpusstore

import (
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// benchCorpus is sized so per-op cost dominates setup: 8 countries of 5000
// rows is ~40k sites, large enough that block framing, interning, and CRC
// work are the measured quantities.
func benchCorpus(tb testing.TB) *dataset.Corpus {
	tb.Helper()
	return testCorpus(99, []string{"AU", "BR", "DE", "IN", "JP", "TH", "US", "ZA"}, 5000)
}

// reportRows adds throughput in rows per second. (b.SetBytes would print
// the row count as MB/s.)
func reportRows(b *testing.B, rowsPerOp int) {
	b.ReportMetric(float64(rowsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func benchOpts() *Options {
	return &Options{Obs: obs.NewRegistry()}
}

// BenchmarkStoreSave measures full-corpus persistence: framing, interning,
// CRC, fsync, and rename across all shards plus the manifest.
func BenchmarkStoreSave(b *testing.B) {
	c := benchCorpus(b)
	dirs := make([]string, b.N)
	for i := range dirs {
		dirs[i] = b.TempDir()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(dirs[i], c, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, c.TotalSites())
}

// BenchmarkShardStream measures the decode path alone: one country's shard
// streamed row by row, no materialization.
func BenchmarkShardStream(b *testing.B) {
	c := benchCorpus(b)
	dir := b.TempDir()
	if err := Save(dir, c, benchOpts()); err != nil {
		b.Fatal(err)
	}
	st, err := Open(dir, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows int64
		if err := st.StreamShard("US", func(*dataset.Website) error { rows++; return nil }); err != nil {
			b.Fatal(err)
		}
		if rows != 5000 {
			b.Fatalf("streamed %d rows", rows)
		}
	}
	reportRows(b, 5000)
}

// BenchmarkStoreScore measures streamed scoring of a stored corpus — the
// fixed-memory path the scale gate runs at a million sites.
func BenchmarkStoreScore(b *testing.B) {
	c := benchCorpus(b)
	dir := b.TempDir()
	if err := Save(dir, c, benchOpts()); err != nil {
		b.Fatal(err)
	}
	st, err := Open(dir, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Score(); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, c.TotalSites())
}

// BenchmarkInMemoryScore is BenchmarkStoreScore's resident baseline: the
// same corpus scored through the in-memory index, cache defeated per
// iteration, quantifying what streaming from disk costs.
func BenchmarkInMemoryScore(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InvalidateScoringIndex()
		if got := len(c.ScoreSet().Countries()); got != 8 {
			b.Fatalf("scored %d countries", got)
		}
	}
	reportRows(b, c.TotalSites())
}

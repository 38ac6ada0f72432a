package pipeline

import (
	"context"
	"fmt"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/worldgen"
)

// MeasureWorldToStore measures a world straight into an on-disk corpus
// store: each country's raw sites are generated (for shell worlds) or read
// from the world, enriched, and appended to that country's shard, so at
// most one country per worker is ever resident — the path that lets a
// million-site world be measured and scored inside a fixed memory budget.
// Each worker enriches into one reused list: AppendList returns once the
// shard's bytes are written, so the rows are free for the next country.
// The rows written are identical to MeasureWorld's corpus for the same
// world. The caller still owns st and must Close it to finalize the
// manifest.
func (p *Pipeline) MeasureWorldToStore(w *worldgen.World, st *corpusstore.Writer) error {
	if st.Epoch() != w.Config.Epoch {
		return fmt.Errorf("pipeline: store epoch %q does not match world epoch %q", st.Epoch(), w.Config.Epoch)
	}
	reg := p.reg()
	measureSpan := obs.StartSpan(reg.Timing("stage.measure.ms"))
	enrichMS := reg.Timing("pipeline.enrich_country.ms")
	enriched := reg.Counter("pipeline.countries_enriched")

	ccs := w.Config.Countries
	// At most this many countries are enriched at once, so the channel
	// never fills.
	idle := make(chan *dataset.CountryList, min(parallel.Workers(p.Workers), len(ccs)))
	err := parallel.ForEachIndexed(context.Background(), p.Workers, len(ccs),
		func(_ context.Context, i int) error {
			cc := ccs[i]
			raw, ok := w.Raw[cc]
			if !ok {
				// Shell world: generate the country on demand and let it go
				// once its shard is written.
				var err error
				if raw, _, err = w.GenerateCountry(cc); err != nil {
					return err
				}
			}
			if len(raw) == 0 {
				return fmt.Errorf("pipeline: world has no raw sites for %s", cc)
			}
			var list *dataset.CountryList
			select {
			case list = <-idle:
			default:
				list = new(dataset.CountryList)
			}
			defer func() { idle <- list }()
			sp := obs.StartSpan(enrichMS)
			p.enrichInto(list, cc, w.Config.Epoch, raw)
			sp.End()
			enriched.Inc()
			return st.AppendList(list)
		})
	measureSpan.End()
	return err
}

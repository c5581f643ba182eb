package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"ringsym/internal/campaign"
)

// sweepWorkload is a researcher's local sweep: campaign.RunAll with the
// cache off over the paper's default matrix (coordinate and discover ×
// basic/lazy/perceptive × both parities × both chirality regimes) at the
// sweep sizes, on 2 workers, exported through campaign.OrderedWriter into
// SHA-256.  The window repeats the sweep; every pass must export the same
// digest and every solvable record must be ok and verified.
func sweepWorkload(ctx context.Context, p params) (*run, error) {
	m := campaign.Matrix{Sizes: p.sweepSizes, Seeds: drawSeeds(rand.New(rand.NewSource(p.seed)), p.sweepSeeds)}
	opts := campaign.Options{Workers: 2}
	r := newRun()
	var scs []campaign.Scenario
	var err error
	// Set-up: expand the matrix and run one warm-up pass, so the netgen
	// memo and the engine's pools are filled before timing.
	r.setup, err = timeSetups(p.setups, func(bool) error {
		if scs, err = m.Expand(); err != nil {
			return err
		}
		_, err = campaign.RunAll(ctx, scs, opts)
		return err
	})
	if err != nil {
		return nil, err
	}

	var first [32]byte
	var last []campaign.Record
	r.start(p.window)
	deadline := r.t0.Add(p.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t := time.Now()
		recs, err := campaign.RunAll(ctx, scs, opts)
		if err != nil {
			return nil, err
		}
		d, err := exportDigest(scs, recs)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			first = d
		} else if d != first {
			r.fail(len(recs), "sweep: pass %d exported a different digest than pass 0", pass)
		}
		checkRecords(r, recs)
		r.endPass()
		r.rates = append(r.rates, float64(len(recs))/time.Since(t).Seconds())
		last = recs
	}
	r.stop()
	if r.want, err = linesByIndex(last); err != nil {
		return nil, err
	}
	r.replaySet = scs
	return r, nil
}

// checkRecords counts records into the run: a solvable record must be ok
// and verified; unsolvable records are a result, not a failure.  Each
// record's wall time is its latency.
func checkRecords(r *run, recs []campaign.Record) {
	for _, rec := range recs {
		r.attempted++
		if rec.Status == campaign.StatusFailed || (rec.Status == campaign.StatusOK && !rec.Verified) {
			r.fail(1, "scenario %d (%s): status %s verified=%t: %s", rec.Index, rec.Key(), rec.Status, rec.Verified, rec.Error)
			r.lat = append(r.lat, math.Inf(1))
			continue
		}
		r.delivered++
		r.lat = append(r.lat, ms(rec.Wall))
	}
}

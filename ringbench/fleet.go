package main

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/fleet"
	"ringsym/internal/serve"
)

// fleetWorkload is a sweep sharded over a fleet: fleet.Run with 2
// in-process ringd workers of 1 pool worker each on loopback, the cache
// off, over the sweep axes at the fleet sizes.  The merged JSONL of every
// pass must be byte-identical to a local RunAll of the same matrix, with
// nothing quarantined.  Latency is per record: from the start of its pass
// to its merge, which is when a fleet user sees it.
func fleetWorkload(ctx context.Context, p params) (_ *run, err error) {
	m := campaign.Matrix{Sizes: p.fleetSizes, Seeds: drawSeeds(rand.New(rand.NewSource(p.seed)), p.fleetSeeds)}
	r := newRun()
	var ws []*daemon
	var urls []string
	var merged []time.Time // when each record of the current pass was merged
	pass := func() (fleet.Result, [32]byte, time.Duration, error) {
		h := sha256.New()
		merged = merged[:0]
		t := time.Now()
		res, err := fleet.Run(ctx, m, fleet.Options{
			Workers: urls, Records: h,
			OnRecord: func(campaign.Record) { merged = append(merged, time.Now()) },
		})
		var d [32]byte
		copy(d[:], h.Sum(nil))
		return res, d, time.Since(t), err
	}
	closeAll := func() {
		for _, w := range ws {
			w.close()
		}
		ws, urls = nil, nil
	}
	// Set-up: start both workers and run one warm-up pass.
	r.setup, err = timeSetups(p.setups, func(last bool) error {
		for i := 0; i < 2; i++ {
			w, err := startDaemon(serve.Options{Workers: 1}, "")
			if err != nil {
				return err
			}
			ws = append(ws, w)
			urls = append(urls, w.url)
		}
		if _, _, _, err := pass(); err != nil {
			return err
		}
		if !last {
			closeAll()
		}
		return nil
	})
	r.cleanup = closeAll
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	if err != nil {
		return nil, err
	}

	// The expected export is a local RunAll of the same matrix.
	scs, err := m.Expand()
	if err != nil {
		return nil, err
	}
	local := func() ([]campaign.Record, float64, error) {
		t := time.Now()
		recs, err := campaign.RunAll(ctx, scs, campaign.Options{Workers: 2})
		return recs, ms(time.Since(t)), err
	}
	recs, _, err := local()
	if err != nil {
		return nil, err
	}
	ref, err := exportDigest(scs, recs)
	if err != nil {
		return nil, err
	}

	var walls []float64
	leases, fails := 0, 0
	r.start(p.window)
	deadline := r.t0.Add(p.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		start := time.Now()
		res, d, wall, err := pass()
		if err != nil {
			return nil, err
		}
		checkFleetPass(r, i, res, d, ref)
		for _, at := range merged {
			r.lat = append(r.lat, ms(at.Sub(start)))
		}
		r.endPass()
		for _, w := range res.Workers {
			leases += w.Leases
			fails += w.Fails
		}
		walls = append(walls, ms(wall))
		r.rates = append(r.rates, float64(res.Merged)/wall.Seconds())
	}
	r.stop()

	if p.trace {
		var localWalls []float64
		for i := 0; i < 5; i++ {
			_, wall, err := local()
			if err != nil {
				return nil, err
			}
			localWalls = append(localWalls, wall)
		}
		r.layer["fleet.overhead_ms"] = median(walls) - median(localWalls)
	}
	r.layer["fleet.leases"] = float64(leases) / float64(len(walls))
	r.layer["fleet.ms_per_lease"] = ms(r.window) / float64(leases)
	r.layer["fleet.fails"] = float64(fails)
	for _, w := range ws {
		snap := w.srv.Snapshot()
		r.layer["serve.throttled"] += float64(snap.Throttled)
		r.layer["serve.failed"] += float64(snap.Failed)
	}
	if r.want, err = linesByIndex(recs); err != nil {
		return nil, err
	}
	r.replaySet = scs
	return r, nil
}

// checkFleetPass counts one fleet pass into the run: every index must be
// merged, nothing quarantined, and the merged JSONL must equal the local
// RunAll export (ref).
func checkFleetPass(r *run, pass int, res fleet.Result, got, ref [32]byte) {
	r.attempted += res.Total
	switch {
	case len(res.Quarantined) != 0 || res.Merged != res.Total:
		r.fail(res.Total, "fleet-2w: pass %d merged %d of %d, quarantined %v", pass, res.Merged, res.Total, res.Quarantined)
	case got != ref:
		r.fail(res.Total, "fleet-2w: pass %d merged JSONL differs from the local RunAll export", pass)
	default:
		r.delivered += res.Merged
	}
}

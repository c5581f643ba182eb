package main

import (
	"context"
	"math/rand"
	"os"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/store"
)

// warmWorkload is ringd (or ringfarm -store) after a restart.  Set-up runs
// a cold cached sweep of a symmetric matrix (every setting in 4 phases × 2
// reflections) into a store directory and closes the store.  Each pass of
// the window is one restart: store.Open (the boot scan), a fresh cache far
// smaller than the orbit count with the store attached as its tier, and
// RunAll over every framing in a seeded global shuffle, so the disk tier
// serves most lookups.  A pass must compute nothing and export the cold
// set-up's records, cache annotations aside.
func warmWorkload(ctx context.Context, p params) (_ *run, err error) {
	rng := rand.New(rand.NewSource(p.seed))
	m := campaign.Matrix{
		Sizes: p.warmSizes, Seeds: drawSeeds(rng, p.warmSeeds),
		Phases: []int{0, 1, 2, 3}, Reflections: []bool{false, true},
	}
	r := newRun()
	var dir string
	var scs, shuffled []campaign.Scenario
	var cold []campaign.Record
	r.setup, err = timeSetups(p.setups, func(last bool) error {
		if dir, err = scratchDir(p.tmp, "warm-store-"); err != nil {
			return err
		}
		if scs, err = m.Expand(); err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		cache := campaign.NewCache(0)
		cache.AttachTier(st, nil)
		cold, err = campaign.RunAll(ctx, scs, campaign.Options{Workers: 2, Cache: cache})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		shuffled = append([]campaign.Scenario(nil), scs...)
		rand.New(rand.NewSource(p.seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if !last {
			return os.RemoveAll(dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.cleanup = func() { os.RemoveAll(dir) }
	defer func() {
		if err != nil {
			r.cleanup()
		}
	}()
	for _, rec := range cold {
		if rec.Status == campaign.StatusFailed {
			r.fail(1, "warm-restart: cold set-up scenario %d failed: %s", rec.Index, rec.Error)
		}
	}
	ref, err := exportDigest(scs, cold)
	if err != nil {
		return nil, err
	}

	var opens, bootMBps []float64
	var lookups, reused, computes, evictions uint64
	r.start(p.window)
	deadline := r.t0.Add(p.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		open := time.Since(t)
		cache := campaign.NewCache(p.warmCap)
		cache.AttachTier(st, nil)
		recs, err := campaign.RunAll(ctx, shuffled, campaign.Options{Workers: 2, Cache: cache})
		if err != nil {
			st.Close()
			return nil, err
		}
		d, err := exportDigest(shuffled, recs)
		if err != nil {
			st.Close()
			return nil, err
		}
		total := st.Stats().TotalBytes
		if err := st.Close(); err != nil {
			return nil, err
		}
		cs := cache.Stats()
		checkWarmPass(r, pass, len(recs), cs.Misses, d, ref)
		checkRecords(r, recs)
		r.endPass()
		r.rates = append(r.rates, float64(len(recs))/time.Since(t).Seconds())
		opens = append(opens, ms(open))
		bootMBps = append(bootMBps, float64(total)/(1<<20)/open.Seconds())
		lookups += cs.Hits + cs.Misses + cs.Dedups + cs.DiskHits + cs.PeerHits
		reused += cs.Hits + cs.Dedups + cs.DiskHits
		computes += cs.Misses
		evictions += cs.Evictions
	}
	r.stop()

	r.layer["store.open_ms"] = median(opens)
	r.layer["store.boot_scan_mb_per_s"] = median(bootMBps)
	if lookups > 0 {
		r.layer["memo.reuse_ratio"] = float64(reused) / float64(lookups)
	}
	r.layer["memo.computes"] = float64(computes)
	r.layer["memo.evictions"] = float64(evictions)
	if r.want, err = linesByIndex(cold); err != nil {
		return nil, err
	}
	r.replaySet = scs
	return r, nil
}

// checkWarmPass fails a restart pass that computed anything or whose export
// differs from the cold set-up's (ref).
func checkWarmPass(r *run, pass, n int, computes uint64, got, ref [32]byte) {
	if computes != 0 {
		r.fail(n, "warm-restart: pass %d computed %d outcomes, want 0", pass, computes)
	} else if got != ref {
		r.fail(n, "warm-restart: pass %d records differ from the cold set-up's", pass)
	}
}

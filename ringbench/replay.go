package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"ringsym"
	"ringsym/internal/campaign"
	"ringsym/internal/canon"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
	"ringsym/internal/store"
	"ringsym/internal/task"
)

// recordLine is a record's export line with the cache annotation stripped:
// the form every output check compares, since which framing of an orbit is
// the miss depends on scheduling while everything else is a pure function of
// the scenario.
func recordLine(rec campaign.Record) ([]byte, error) {
	rec.Cache = ""
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// exportDigest streams the records through campaign.OrderedWriter into
// SHA-256, cache annotations stripped, the way ringfarm exports records.jsonl.
func exportDigest(scs []campaign.Scenario, recs []campaign.Record) ([32]byte, error) {
	h := sha256.New()
	w := campaign.NewOrderedWriter(h, scs)
	for _, rec := range recs {
		rec.Cache = ""
		if err := w.Add(rec); err != nil {
			return [32]byte{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return [32]byte{}, err
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// linesByIndex maps each record's index to its stripped export line.
func linesByIndex(recs []campaign.Record) (map[int][]byte, error) {
	out := make(map[int][]byte, len(recs))
	for _, rec := range recs {
		b, err := recordLine(rec)
		if err != nil {
			return nil, err
		}
		out[rec.Index] = b
	}
	return out, nil
}

// ringJob is one solvable configuration and the round count its task used,
// replayed on the bare kernel for ring.ns_per_round.
type ringJob struct {
	cfg    ring.Config
	rounds int
}

// replayed is what the layer-by-layer replay produced.
type replayed struct {
	n          int           // scenarios replayed
	wall       time.Duration // wall time of the replay loop
	mismatches []string      // replay records that differ from the untraced ones
	keys       []string      // distinct cache keys of the solvable scenarios
	vals       [][]byte      // their canonical-frame outcomes, as the store tier encodes them
	jobs       []ringJob
}

// perScenario runs inside a replayed scenario's root span (serve uses it to
// time the HTTP round trip); it returns a non-empty problem on a mismatch.
type perScenario func(sc campaign.Scenario, tr *tracer, root int) string

// replay drives each scenario through the layers one public call at a time —
// netgen.Generate → canon.Transform → canon.Canonicalize + Fingerprint →
// ringsym.NewNetwork → spec.Run → spec.Verify → spec.MapOutcome → record
// encode — and checks that the record it builds equals, modulo the cache
// annotation, the line the untraced path produced for that scenario (want,
// by index).  Scenarios are replayed in index order; tr may be nil.
func replay(ctx context.Context, scs []campaign.Scenario, want map[int][]byte, tr *tracer, hook perScenario) (replayed, error) {
	scs = append([]campaign.Scenario(nil), scs...)
	sort.Slice(scs, func(i, j int) bool { return scs[i].Index < scs[j].Index })
	var out replayed
	var buf bytes.Buffer
	w := campaign.NewOrderedWriter(&buf, scs)
	seen := make(map[string]bool)
	start := time.Now()
	for _, sc := range scs {
		root := tr.begin("scenario", sc.Index, -1)
		rec, key, val, job, err := replayOne(ctx, sc, tr, root)
		if err != nil {
			return out, err
		}
		if key != "" && !seen[key] {
			seen[key] = true
			out.keys = append(out.keys, key)
			out.vals = append(out.vals, val)
		}
		if job.rounds > 0 {
			out.jobs = append(out.jobs, job)
		}
		s := tr.begin("campaign.encode", sc.Index, root)
		buf.Reset()
		err = w.Add(rec)
		tr.end(s)
		if err != nil {
			return out, err
		}
		if exp, ok := want[sc.Index]; !ok {
			out.mismatches = append(out.mismatches, fmt.Sprintf("replay: no untraced record for scenario %d", sc.Index))
		} else if !bytes.Equal(buf.Bytes(), exp) {
			out.mismatches = append(out.mismatches, fmt.Sprintf("replay: scenario %d: replay %q != untraced %q", sc.Index, buf.Bytes(), exp))
		}
		if hook != nil {
			if p := hook(sc, tr, root); p != "" {
				out.mismatches = append(out.mismatches, p)
			}
		}
		tr.end(root)
		out.n++
	}
	out.wall = time.Since(start)
	return out, nil
}

// replayOne builds one scenario's record through the public layer calls.
// For a solvable scenario it also returns the orbit's cache key, the
// canonical outcome bytes the store tier would persist, and the kernel job.
func replayOne(ctx context.Context, sc campaign.Scenario, tr *tracer, root int) (rec campaign.Record, key string, val []byte, job ringJob, err error) {
	rec = campaign.Record{Scenario: sc}
	model, err := campaign.ParseModel(sc.Model)
	if err != nil {
		return rec, "", nil, job, err
	}
	spec, err := task.Lookup(string(sc.Task))
	if err != nil {
		return rec, "", nil, job, err
	}
	oddN := sc.N%2 == 1
	rec.Bound, rec.BoundStr = spec.Bound(model, oddN, sc.CommonSense, sc.N, sc.IDBound)
	if !spec.Solvable(model, oddN) {
		rec.Status = campaign.StatusUnsolvable
		return rec, "", nil, job, nil
	}
	fail := func(e error) (campaign.Record, string, []byte, ringJob, error) {
		rec.Status, rec.Error = campaign.StatusFailed, e.Error()
		return rec, "", nil, job, nil
	}

	s := tr.begin("netgen.generate", sc.Index, root)
	gen, err := netgen.Generate(netgen.Options{
		N: sc.N, IDBound: sc.IDBound, Model: model, MixedChirality: sc.MixedChirality,
		ForceSplitChirality: sc.MixedChirality, Seed: sc.Seed,
	})
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	if sc.Phase != 0 || sc.Reflect {
		s = tr.begin("canon.transform", sc.Index, root)
		gen, err = canon.Transform(gen, sc.Phase, sc.Reflect)
		tr.end(s)
		if err != nil {
			return fail(err)
		}
	}
	s = tr.begin("canon.canonicalize", sc.Index, root)
	ccfg, m, err := canon.Canonicalize(gen)
	fp := ""
	if err == nil {
		fp = canon.Fingerprint(ccfg)
	}
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	key = fmt.Sprintf("%s|task=%s|cs=%t|seed=%d", fp, sc.Task, sc.CommonSense, sc.Seed)
	if !campaign.ValidCacheKey.MatchString(key) {
		return rec, "", nil, job, fmt.Errorf("replay: scenario %d: key %q fails campaign.ValidCacheKey", sc.Index, key)
	}

	s = tr.begin("engine.network", sc.Index, root)
	nw, err := ringsym.NewNetwork(ringsym.Config{
		Model: ccfg.Model, Circumference: ccfg.Circ, Positions: ccfg.Positions, IDs: ccfg.IDs,
		IDBound: ccfg.IDBound, Chirality: ccfg.Chirality, MaxRounds: ccfg.MaxRounds,
	})
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	p := task.Params{N: sc.N, IDBound: ccfg.IDBound, MixedChirality: sc.MixedChirality, CommonSense: sc.CommonSense, Seed: sc.Seed}
	s = tr.begin("task.run", sc.Index, root)
	out, err := spec.Run(ctx, nw, p)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.begin("task.verify", sc.Index, root)
	err = spec.Verify(nw, p, out)
	tr.end(s)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ringsym.ErrVerification, err))
	}
	s = tr.begin("task.map", sc.Index, root)
	mapped := spec.MapOutcome(out, m)
	tr.end(s)

	rec.Rounds, rec.LeaderID = mapped.Rounds, mapped.LeaderID
	if len(mapped.PerAgent) > 0 {
		sp := mapped.PerAgent[0]
		rec.RoundsNontrivial, rec.RoundsAgreement, rec.RoundsLeader = sp.Nontrivial, sp.Agreement, sp.Leader
		rec.RoundsCoordination, rec.RoundsDiscovery = sp.Coordination, sp.Discovery
	}
	rec.Extra = mapped.Extra
	rec.Status, rec.Verified = campaign.StatusOK, true
	val, err = json.Marshal(out)
	if err != nil {
		return rec, "", nil, job, err
	}
	job = ringJob{cfg: ring.Config{Model: ccfg.Model, Circ: ccfg.Circ, Positions: ccfg.Positions}, rounds: out.Rounds}
	return rec, key, val, job, nil
}

// ringReplay re-executes each job's round count on the bare kernel
// (ring.New + ExecuteRoundInto) with seeded direction patterns and returns
// the mean cost of one round in nanoseconds.
func ringReplay(jobs []ringJob, seed int64, tr *tracer) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	var rounds int
	var out ring.Outcome
	for i, j := range jobs {
		n := len(j.cfg.Positions)
		pats := make([][]ring.Direction, 8)
		for k := range pats {
			pats[k] = make([]ring.Direction, n)
			for a := range pats[k] {
				pats[k][a] = ring.Clockwise + ring.Direction(rng.Intn(2))
			}
		}
		s := tr.begin("ring.replay", i, -1)
		t := time.Now()
		st, err := ring.New(j.cfg)
		if err != nil {
			return 0, err
		}
		for r := 0; r < j.rounds; r++ {
			if err := st.ExecuteRoundInto(pats[r%len(pats)], &out); err != nil {
				return 0, err
			}
		}
		total += time.Since(t)
		tr.end(s)
		rounds += j.rounds
	}
	if rounds == 0 {
		return 0, nil
	}
	return float64(total) / float64(rounds), nil
}

// memoProbe fills a fresh cache with the scenarios and then times
// campaign.ProbeCache on each: the memory-tier hit path of a served request.
// Every solvable probe must hit and equal the untraced line.
func memoProbe(ctx context.Context, scs []campaign.Scenario, want map[int][]byte, tr *tracer) ([]string, error) {
	// A capacity of 16 per scenario leaves every shard of the cache room for
	// all of them, so nothing is evicted before it is probed.
	opts := campaign.Options{Workers: 2, Cache: campaign.NewCache(16 * len(scs))}
	recs, err := campaign.RunAll(ctx, scs, opts)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, rec := range recs {
		if rec.Status != campaign.StatusOK {
			continue
		}
		s := tr.begin("memo.probe", rec.Index, -1)
		got, ok := campaign.ProbeCache(rec.Scenario, opts)
		tr.end(s)
		if !ok {
			bad = append(bad, fmt.Sprintf("memo: probe of scenario %d missed a filled cache", rec.Index))
			continue
		}
		if line, err := recordLine(got); err != nil || !bytes.Equal(line, want[rec.Index]) {
			bad = append(bad, fmt.Sprintf("memo: probe of scenario %d differs from the untraced record", rec.Index))
		}
	}
	return bad, nil
}

// storeResult holds the scratch store's per-layer figures.
type storeResult struct {
	openMS, bootMBps, bytesPerRec, spaceAmp float64
}

// storeProbe puts the replay's outcomes into a scratch store under dir,
// reopens it (the boot scan) and reads every key back, timing each call.
// Every Get must hit and return the bytes that were put.
func storeProbe(dir string, keys []string, vals [][]byte, tr *tracer) (storeResult, []string, error) {
	var res storeResult
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, nil, err
	}
	for i, k := range keys {
		s := tr.begin("store.put", i, -1)
		err := st.Put(k, vals[i])
		tr.end(s)
		if err != nil {
			st.Close()
			return res, nil, err
		}
	}
	if err := st.Close(); err != nil {
		return res, nil, err
	}
	t := time.Now()
	st, err = store.Open(dir, store.Options{})
	open := time.Since(t)
	if err != nil {
		return res, nil, err
	}
	defer st.Close()
	var bad []string
	for i, k := range keys {
		s := tr.begin("store.get", i, -1)
		b, ok := st.Get(k)
		tr.end(s)
		if !ok || !bytes.Equal(b, vals[i]) {
			bad = append(bad, fmt.Sprintf("store: Get of key %d (%s) missed or differs", i, k))
		}
	}
	stats := st.Stats()
	res.openMS = ms(open)
	if open > 0 {
		res.bootMBps = float64(stats.TotalBytes) / (1 << 20) / open.Seconds()
	}
	if stats.IndexEntries > 0 {
		res.bytesPerRec = float64(stats.TotalBytes) / float64(stats.IndexEntries)
	}
	if stats.LiveBytes > 0 {
		res.spaceAmp = float64(stats.TotalBytes) / float64(stats.LiveBytes)
	}
	return res, bad, nil
}

// scratchDir makes a fresh directory under the run's temp root.
func scratchDir(tmp, pattern string) (string, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, pattern)
}

package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"ringsym/internal/campaign"
	"ringsym/internal/fleet"
)

// tinyParams shrinks every workload to a few dozen scenarios and a window
// of a fraction of a second.
func tinyParams(t *testing.T) params {
	return params{
		seed: 7, window: 150 * time.Millisecond, setups: 1, tmp: t.TempDir(), traceDir: t.TempDir(), replayMax: 48,
		sweepSizes: []int{8}, sweepSeeds: 1,
		serveSizes: []int{8}, serveRate: 400,
		warmSizes: []int{8}, warmSeeds: 1, warmCap: 8,
		fleetSizes: []int{8}, fleetSeeds: 1,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the code to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsEmitEveryMetric runs every workload at tiny sizes, untraced
// and traced, and checks the result carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that its checks passed.
// serve-symmetric runs too, though BENCHMARK.json leaves it out.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			p := tinyParams(t)
			p.trace = traced
			res, rp, err := measure(context.Background(), name, p)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d: %v", name, traced, res.Correct, res.Attempted, res.Failed, rp.problems)
			}
			if traced && name == "serve-symmetric" && len(rp.extra) != len(serveUnits) {
				t.Errorf("serve-symmetric traced run printed %d of its %d own figures", len(rp.extra), len(serveUnits))
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 && m.Name != "fleet.overhead_ms":
					t.Errorf("%s trace=%t: metric %s = %v", name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

func tinyRecords(t *testing.T) ([]campaign.Scenario, []campaign.Record, map[int][]byte) {
	t.Helper()
	scs, err := campaign.Matrix{Sizes: []int{8}, Seeds: []int64{3}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.RunAll(context.Background(), scs, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := linesByIndex(recs)
	if err != nil {
		t.Fatal(err)
	}
	return scs, recs, want
}

// wrongLine returns rec's export line with its round count off by one: an
// expectation no correct program output can meet.
func wrongLine(t *testing.T, rec campaign.Record) []byte {
	t.Helper()
	rec.Rounds++
	b, err := recordLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func solvable(recs []campaign.Record) campaign.Record {
	for _, rec := range recs {
		if rec.Status == campaign.StatusOK {
			return rec
		}
	}
	return campaign.Record{}
}

func TestSweepCheckFlagsBadRecords(t *testing.T) {
	r := newRun()
	checkRecords(r, []campaign.Record{
		{Status: campaign.StatusOK, Verified: true},
		{Status: campaign.StatusUnsolvable},
		{Status: campaign.StatusOK, Verified: false},
		{Status: campaign.StatusFailed, Error: "boom"},
	})
	if r.attempted != 4 || r.delivered != 2 || r.failed != 2 {
		t.Fatalf("attempted %d delivered %d failed %d, want 4, 2, 2", r.attempted, r.delivered, r.failed)
	}
	if !math.IsInf(r.lat[2], 1) || !math.IsInf(r.lat[3], 1) {
		t.Errorf("failed records must count as infinitely late: %v", r.lat)
	}
}

func TestPassLatencyIsMedianOverPasses(t *testing.T) {
	r := newRun()
	inf := math.Inf(1)
	for _, pass := range [][]float64{{1, 10, 5}, {9, 20, 5}, {2, 30, inf}} {
		r.lat = append(r.lat, pass...)
		r.endPass()
	}
	got, want := r.latencies(), []float64{2, 20, inf}
	if !slices.Equal(got, want) {
		t.Errorf("latencies over passes = %v, want %v (median per operation, +Inf if it failed in any pass)", got, want)
	}
	if len(r.lat) != 0 {
		t.Errorf("endPass left %d latencies in the current pass", len(r.lat))
	}
}

func TestReplayFlagsWrongExpectation(t *testing.T) {
	scs, recs, want := tinyRecords(t)
	rep, err := replay(context.Background(), scs, want, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 0 || rep.n != len(scs) {
		t.Fatalf("replay of the untraced records: %d replayed, mismatches %v", rep.n, rep.mismatches)
	}
	bad := make(map[int][]byte, len(want))
	for k, v := range want {
		bad[k] = v
	}
	rec := solvable(recs)
	bad[rec.Index] = wrongLine(t, rec)
	rep, err = replay(context.Background(), scs, bad, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 1 {
		t.Fatalf("replay against one wrong expectation: mismatches %v, want exactly 1", rep.mismatches)
	}
}

func TestServeCheckFlagsWrongExpectation(t *testing.T) {
	_, recs, want := tinyRecords(t)
	now := time.Now()
	replies := make([]reply, len(recs))
	for i, rec := range recs {
		rec.Cache = "hit"
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = reply{due: now, sent: now, done: now.Add(time.Millisecond)}
		replies[i].setBody(http.StatusOK, append(body, '\n'))
	}
	r := newRun()
	checkReplies(r, replies, want)
	if r.failed != 0 || r.delivered != len(recs) {
		t.Fatalf("correct replies: failed %d delivered %d: %v", r.failed, r.delivered, r.problems)
	}

	rec := solvable(recs)
	want[rec.Index] = wrongLine(t, rec)
	last := len(replies) - 1
	if rec.Index == last {
		t.Fatal("the wrong expectation and the refused request must be different requests")
	}
	replies[last].setBody(http.StatusTooManyRequests, []byte(`{"error":"worker pool saturated"}`))
	r = newRun()
	checkReplies(r, replies, want)
	if r.failed != 2 || r.delivered != len(recs)-2 {
		t.Fatalf("one wrong expectation and one 429: failed %d delivered %d, want 2 and %d", r.failed, r.delivered, len(recs)-2)
	}
}

func TestWarmCheckFlagsComputesAndDigest(t *testing.T) {
	ref := [32]byte{1}
	r := newRun()
	checkWarmPass(r, 0, 10, 0, ref, ref)
	if r.failed != 0 {
		t.Fatalf("clean pass failed: %v", r.problems)
	}
	checkWarmPass(r, 1, 10, 1, ref, ref)
	checkWarmPass(r, 2, 10, 0, [32]byte{2}, ref)
	if r.failed != 20 {
		t.Fatalf("a computing pass and a differing pass: failed %d, want 20", r.failed)
	}
}

func TestFleetCheckFlagsQuarantineAndDigest(t *testing.T) {
	ref := [32]byte{1}
	r := newRun()
	checkFleetPass(r, 0, fleet.Result{Total: 6, Merged: 6}, ref, ref)
	if r.failed != 0 || r.delivered != 6 {
		t.Fatalf("clean pass: failed %d delivered %d", r.failed, r.delivered)
	}
	checkFleetPass(r, 1, fleet.Result{Total: 6, Merged: 4, Quarantined: []fleet.Range{{Lo: 2, Hi: 4}}}, ref, ref)
	checkFleetPass(r, 2, fleet.Result{Total: 6, Merged: 6}, [32]byte{2}, ref)
	if r.failed != 12 || r.delivered != 6 {
		t.Fatalf("a quarantining pass and a differing pass: failed %d delivered %d, want 12 and 6", r.failed, r.delivered)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// Overlapping and overhanging children are counted once and clipped.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "a1", Parent: 1, Start: 15, End: 20},
		{Name: "c", Parent: 0, Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := []int64{40, 25, 30, 5, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	// On a real traced replay, self times are non-negative and each
	// scenario's self times sum to its root span.
	scs, _, want2 := tinyRecords(t)
	tr := newTracer()
	if _, err := replay(context.Background(), scs, want2, tr, nil); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	sums := make(map[int]int64)
	for i, s := range tr.spans {
		if self[i] < 0 {
			t.Fatalf("span %s of scenario %d has self time %d", s.Name, s.ID, self[i])
		}
		root := i
		for tr.spans[root].Parent >= 0 {
			root = tr.spans[root].Parent
		}
		sums[root] += self[i]
	}
	if len(sums) != len(scs) {
		t.Fatalf("%d root spans, want one per scenario (%d)", len(sums), len(scs))
	}
	for root, sum := range sums {
		if d := tr.spans[root].End - tr.spans[root].Start; sum != d {
			t.Errorf("scenario %d: self times sum to %d ns, root span is %d ns", tr.spans[root].ID, sum, d)
		}
	}
}

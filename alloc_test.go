package ringsym_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/canon"
	"ringsym/internal/netgen"
	"ringsym/internal/ring"
	"ringsym/internal/serve"
	"ringsym/internal/store"
)

// allocBudgetPath holds one "name count" line per measured workload: the
// allocations per operation this revision is allowed.
const allocBudgetPath = "testdata/alloc_budget.txt"

// allocTolerance is the slack granted around a budget line: budget/1000,
// which is 0 on the per-request rows.  The test runs with the collector off,
// so sync.Pool contents survive and counts do not depend on when a GC lands;
// what remains is the growth of maps whose keys spread by a random hash seed,
// a few allocations in a hundred thousand on the sweep rows.
func allocTolerance(budget int) int { return budget / 1000 }

// TestAllocationBudget measures allocations per operation on fixed
// workloads through the exported APIs and compares each with its line in
// testdata/alloc_budget.txt.  The check is two-sided: a count above
// budget+tolerance is a regression, and a count below budget−tolerance means
// an improvement that must lower its line, so the file always records what
// the code does.  A failure prints the measured line to paste into the file.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget := readAllocBudget(t)
	measured := map[string]int{
		"campaign_sequential":       allocsSequentialSweep(t),
		"campaign_symmetric_cached": allocsSymmetricCached(t),
		"campaign_disk_tier":        allocsDiskTier(t),
		"canon_canonicalize":        allocsCanonicalize(t),
	}
	measured["serve_run_hit"], measured["serve_run_miss"] = allocsServeRun(t)

	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := measured[name]
		want, ok := budget[name]
		if !ok {
			t.Errorf("%s has no line in %s; add:\n%s %d", name, allocBudgetPath, name, got)
			continue
		}
		tol := allocTolerance(want)
		switch {
		case got > want+tol:
			t.Errorf("%s: %d allocs/op, over the budget of %d (tolerance %d); reduce the allocations or, with a stated reason, raise the line to:\n%s %d",
				name, got, want, tol, name, got)
		case got < want-tol:
			t.Errorf("%s: %d allocs/op, under the budget of %d (tolerance %d); lower the line to:\n%s %d",
				name, got, want, tol, name, got)
		default:
			t.Logf("%s %d (budget %d)", name, got, want)
		}
	}
	for name := range budget {
		if _, ok := measured[name]; !ok {
			t.Errorf("%s: line %q measures nothing; delete it", allocBudgetPath, name)
		}
	}
}

func readAllocBudget(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(allocBudgetPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budget := make(map[string]int)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			t.Fatalf("%s:%d: want \"name count\", got %q", allocBudgetPath, line, text)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			t.Fatalf("%s:%d: bad count %q", allocBudgetPath, line, fields[1])
		}
		if _, dup := budget[fields[0]]; dup {
			t.Fatalf("%s:%d: duplicate row %q", allocBudgetPath, line, fields[0])
		}
		budget[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budget
}

// allocsPerRun wraps testing.AllocsPerRun, failing the test on the first
// error f reports.
func allocsPerRun(t *testing.T, runs int, f func() error) int {
	t.Helper()
	var first error
	n := testing.AllocsPerRun(runs, func() {
		if err := f(); err != nil && first == nil {
			first = err
		}
	})
	if first != nil {
		t.Fatal(first)
	}
	return int(n)
}

// runSweep runs scenarios through campaign.RunAll and reports the first
// failed record as an error.
func runSweep(scenarios []campaign.Scenario, opts campaign.Options) error {
	recs, err := campaign.RunAll(context.Background(), scenarios, opts)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Status == campaign.StatusFailed {
			return fmt.Errorf("%s: %s", rec.Key(), rec.Error)
		}
	}
	return nil
}

// throughputMatrix is BenchmarkCampaignThroughput's 240-scenario sweep, and
// symmetricMatrix its 1,920-scenario symmetric-heavy variant (8 framings per
// setting).
var (
	throughputMatrix = campaign.Matrix{Sizes: []int{8, 12}, Seeds: []int64{1, 2, 3}}
	symmetricMatrix  = campaign.Matrix{
		Sizes:       []int{8, 12},
		Seeds:       []int64{1, 2, 3},
		Phases:      []int{0, 1, 2, 3},
		Reflections: []bool{false, true},
	}
)

func expand(t *testing.T, m campaign.Matrix) []campaign.Scenario {
	t.Helper()
	scenarios, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scenarios
}

// allocsSequentialSweep: the throughput matrix, uncached, on one worker.
func allocsSequentialSweep(t *testing.T) int {
	scenarios := expand(t, throughputMatrix)
	return allocsPerRun(t, 2, func() error {
		return runSweep(scenarios, campaign.Options{Workers: 1})
	})
}

// allocsSymmetricCached: the symmetric matrix on one worker through a fresh
// cache per run, so the count is the within-sweep dedup path.  One worker
// fixes the split between computed orbits, memory hits and dedups.
func allocsSymmetricCached(t *testing.T) int {
	scenarios := expand(t, symmetricMatrix)
	return allocsPerRun(t, 2, func() error {
		return runSweep(scenarios, campaign.Options{Workers: 1, Cache: campaign.NewCache(0)})
	})
}

// allocsDiskTier: the throughput matrix served from a store a cold pass
// filled.  Each run starts from an empty capacity-1 memory cache over that
// store, so every solvable scenario goes through the store's Get and the
// outcome decoding.  A cache kept across runs would answer from memory the
// keys that happen to sit alone in their shard, and a larger one grows its
// shard maps by how its random seed spreads the keys; both would make the
// count vary between runs.
func allocsDiskTier(t *testing.T) int {
	scenarios := expand(t, throughputMatrix)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cold := campaign.NewCache(0)
	cold.AttachTier(st, nil)
	if err := runSweep(scenarios, campaign.Options{Workers: 1, Cache: cold}); err != nil {
		t.Fatal(err)
	}
	var warm *campaign.Cache
	n := allocsPerRun(t, 2, func() error {
		warm = campaign.NewCache(1)
		warm.AttachTier(st, nil)
		return runSweep(scenarios, campaign.Options{Workers: 1, Cache: warm})
	})
	if s := warm.Stats(); s.DiskHits != cold.Stats().Misses || s.Misses != 0 {
		t.Fatalf("disk-tier pass: %+v, want %d disk hits and no computations", s, cold.Stats().Misses)
	}
	return n
}

// allocsCanonicalize: one canon.Canonicalize of an n=32 basic-model ring.
func allocsCanonicalize(t *testing.T) int {
	cfg, err := netgen.Generate(netgen.Options{N: 32, Seed: 1, Model: ring.Basic, MixedChirality: true})
	if err != nil {
		t.Fatal(err)
	}
	return allocsPerRun(t, 100, func() error {
		_, _, err := canon.Canonicalize(cfg)
		return err
	})
}

// allocsServeRun measures POST /v1/run on a one-worker cached daemon,
// driving its handler directly (httptest recorder, no sockets).  The hit is
// a rotated, reflected framing of an already computed ring, answered on the
// request goroutine; each miss is a fresh seed computed on the pool worker.
//
// The cache holds one entry per shard, and every shard is filled before
// measuring, so a miss evicts an entry instead of growing a shard's maps:
// which shard a key lands in follows the cache's random hash seed, and a
// first insert into an empty shard costs two more allocations.
func allocsServeRun(t *testing.T) (hit, miss int) {
	cache := campaign.NewCache(1)
	srv := serve.New(serve.Options{Workers: 1, Cache: cache})
	defer srv.Close()
	h := srv.Handler()
	post := func(seed int64, phase int, reflect bool) error {
		body := fmt.Sprintf(`{"task":"coordinate","model":"basic","n":16,"seed":%d,"phase":%d,"reflect":%t}`, seed, phase, reflect)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
			return fmt.Errorf("/v1/run seed %d: %d %s", seed, w.Code, w.Body.String())
		}
		return nil
	}
	// 256 keys leave a shard of 16 empty with odds of about one in a million.
	for seed := int64(1000); seed < 1256; seed++ {
		if err := post(seed, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// netgen memoises generated rings process-wide: generate every miss
	// seed once beforehand so each measured miss costs the same whether or
	// not an earlier test in this process generated it.
	const missRuns = 16
	for seed := int64(2); seed <= missRuns+2; seed++ {
		sc := campaign.Scenario{Task: campaign.TaskCoordinate, Model: "basic", N: 16, IDBound: 64, Seed: seed}
		if rec := campaign.RunScenario(sc, campaign.Options{}); rec.Status != campaign.StatusOK {
			t.Fatalf("%s: %s %s", sc.Key(), rec.Status, rec.Error)
		}
	}

	if err := post(1, 0, false); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	const hitRuns = 100
	hit = allocsPerRun(t, hitRuns, func() error { return post(1, 3, true) })
	if got := cache.Stats().Hits - before.Hits; got != hitRuns+1 {
		t.Fatalf("/v1/run hit row: %d cache hits, want %d", got, hitRuns+1)
	}
	before = cache.Stats()
	seed := int64(1)
	miss = allocsPerRun(t, missRuns, func() error { seed++; return post(seed, 0, false) })
	if got := cache.Stats().Misses - before.Misses; got != missRuns+1 {
		t.Fatalf("/v1/run miss row: %d cache misses, want %d", got, missRuns+1)
	}
	return hit, miss
}

package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/engine"
	"ringsym/internal/memo"
	"ringsym/internal/netgen"
	"ringsym/internal/obs"
	"ringsym/internal/task"
)

// Status classifies how a scenario run ended.
type Status string

// Record statuses.
const (
	// StatusOK: the protocol ran to completion and verified against the
	// simulator's ground truth.
	StatusOK Status = "ok"
	// StatusFailed: the protocol errored, verification failed, or the worker
	// recovered a panic; Error holds the cause.
	StatusFailed Status = "failed"
	// StatusUnsolvable: the problem is impossible in the setting (Lemma 5);
	// the scenario is recorded but nothing ran.
	StatusUnsolvable Status = "unsolvable"
)

// Record is the outcome of one scenario.  Everything exported to JSONL is a
// pure function of the scenario, so exports are byte-stable; the wall-clock
// time is deliberately excluded from serialisation and only feeds the
// in-memory aggregation.
type Record struct {
	Scenario
	Status Status `json:"status"`
	// Error is the failure cause when Status is "failed".
	Error string `json:"error,omitempty"`
	// Verified reports that the outcome was checked against the simulator's
	// ground truth (exactly one leader; correct position maps).
	Verified bool `json:"verified"`
	// Rounds is the total round cost of the task.
	Rounds int `json:"rounds"`
	// Per-stage round splits (coordination stages for coordinate, the
	// coordination/discovery split for discover), from agent 0.
	RoundsNontrivial   int `json:"rounds_nontrivial,omitempty"`
	RoundsAgreement    int `json:"rounds_agreement,omitempty"`
	RoundsLeader       int `json:"rounds_leader,omitempty"`
	RoundsCoordination int `json:"rounds_coordination,omitempty"`
	RoundsDiscovery    int `json:"rounds_discovery,omitempty"`
	// LeaderID is the identifier of the elected leader.
	LeaderID int `json:"leader_id,omitempty"`
	// Bound and BoundStr give the paper's bound for the task's total cost.
	Bound    float64 `json:"bound"`
	BoundStr string  `json:"bound_str"`
	// Cache reports how the memo cache served this record ("miss", "hit" or
	// "dedup"); empty — and absent from the JSON — when the cache is
	// disabled.  Which duplicate of an orbit is the miss and whether a
	// duplicate arrives as a hit or an in-flight dedup depend on worker
	// scheduling; the per-orbit totals (one miss, the rest hits+dedups) are
	// deterministic.
	Cache string `json:"cache,omitempty"`
	// Extra holds task-declared result fields (see task.Outcome.Extra): new
	// tasks export task-specific data here without touching the exporter.
	// The built-in tasks leave it nil, which keeps their records
	// byte-identical to pre-registry builds.
	Extra map[string]json.RawMessage `json:"extra,omitempty"`
	// Wall is the measured wall-clock cost of the scenario.  Excluded from
	// JSON so that exports stay deterministic.
	Wall time.Duration `json:"-"`
}

// Options configures a campaign run.
type Options struct {
	// Workers is the worker-pool size; defaults to GOMAXPROCS.
	Workers int
	// Circ is the ring circumference in ticks; 0 uses the netgen default.
	Circ int64
	// MaxRounds aborts runaway protocols; 0 uses the engine default.
	MaxRounds int
	// Cache, when non-nil, memoises outcomes under their canonical symmetry
	// key (see internal/canon): symmetric duplicates in the sweep are
	// answered from the cache and annotated in Record.Cache.  When nil,
	// every scenario executes from scratch and records carry no cache
	// annotation, byte-identical to a cache-less build.
	Cache *Cache
}

// testHookScenario, when set, runs inside the worker between a scenario's
// preparation and its execution; tests use it to inject panics.
var testHookScenario func(Scenario)

// Run executes the scenarios on a pool of workers and streams one Record per
// scenario on the returned channel, in completion order.  The channel is
// closed when all scenarios finished or the context was cancelled (in which
// case records for not-yet-started scenarios are never emitted).  A panic
// inside one scenario is isolated: it becomes a failed record and the sweep
// continues.
func Run(ctx context.Context, scenarios []Scenario, opts Options) <-chan Record {
	workers := PoolSize(opts.Workers, len(scenarios))
	out := make(chan Record)
	feed := make(chan []Scenario)
	if opts.Cache != nil {
		scenarios = DecorrelateOrbits(scenarios)
	}
	if obs.On() {
		obs.Emit(obs.Event{Type: obs.CampaignStart, Level: obs.LevelInfo, Total: len(scenarios)})
	}
	go func() {
		// The feed hands out blocks of consecutive scenarios rather than one
		// scenario per channel rendezvous: on small-n sweeps a scenario costs
		// tens of microseconds, so per-scenario channel synchronisation would
		// be a measurable fraction of the work.
		defer close(feed)
		for lo := 0; lo < len(scenarios); lo += feedChunk {
			hi := lo + feedChunk
			if hi > len(scenarios) {
				hi = len(scenarios)
			}
			select {
			case feed <- scenarios[lo:hi]:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var done atomic.Uint64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each goroutine owns one Worker for its whole shift: every
			// scenario it executes resets the same network, scheduler arena
			// included, keeping the block of small-n scenarios cache-resident.
			var wk Worker
			for block := range feed {
				for _, sc := range block {
					// The scenario runs under ctx, so cancellation interrupts an
					// in-flight protocol within one round instead of waiting out
					// the round bound, recording the scenario as failed with an
					// error wrapping context.Canceled.  Emission below stays
					// best-effort on a cancelled context (the documented Run
					// contract): a consumer that keeps draining until close
					// receives the record unless ctx.Done wins the race.
					rec := wk.Run(ctx, sc, opts)
					n := done.Add(1)
					if obs.On() && n%CheckpointEvery == 0 {
						obs.Emit(obs.Event{Type: obs.CampaignCheckpoint, Level: obs.LevelInfo, Done: int(n), Total: len(scenarios)})
					}
					select {
					case out <- rec:
					case <-ctx.Done():
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		if obs.On() {
			obs.Emit(obs.Event{Type: obs.CampaignFinish, Level: obs.LevelInfo, Done: int(done.Load()), Total: len(scenarios)})
		}
		close(out)
	}()
	return out
}

// PoolSize is the pool size Run uses for n scenarios: workers, or
// GOMAXPROCS when workers <= 0, and never more than n when n > 0.
func PoolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

// feedChunk is the number of consecutive scenarios handed to a worker per
// feed rendezvous.  Small enough that tail imbalance is negligible even on
// short sweeps, large enough to amortise the channel synchronisation.
const feedChunk = 8

// CheckpointEvery is the campaign.checkpoint cadence in completed scenarios,
// shared by local sweeps and the fleet merger: frequent enough that a live
// view or durability layer tracking checkpoints lags a sweep by well under a
// second, rare enough to be free next to the per-scenario events.
const CheckpointEvery = 1000

// EmitScenarioDone publishes the completion event for one record:
// scenario.error for failures (with the cause), scenario.finish otherwise.
// It is the one builder of that event, for local sweeps, cache probes and the
// fleet merger alike; a merged record's Wall is zero (wall time never travels
// in JSON), so its event carries no WallMicros.  Callers guard with obs.On()
// to avoid the call itself; the early return keeps the helper correct on its
// own, so no future call site can build the Event — including its string
// fields — on a quiet bus.
func EmitScenarioDone(rec Record) {
	if !obs.On() {
		return
	}
	ev := obs.Event{
		Type: obs.ScenarioFinish, Level: obs.LevelInfo,
		Task: string(rec.Task), Model: rec.Model, N: rec.N, Seed: rec.Seed, Index: rec.Index,
		Status: string(rec.Status), Cache: rec.Cache,
		Rounds: int64(rec.Rounds), WallMicros: rec.Wall.Microseconds(),
	}
	if rec.Status == StatusFailed {
		ev.Type, ev.Level, ev.Err = obs.ScenarioError, obs.LevelError, rec.Error
	}
	obs.Emit(ev)
}

// decorrelateWindow is the reorder horizon of DecorrelateOrbits: scenarios
// move only within a window of this many feed slots.  Large enough to hold
// many distinct orbits per window (framings per orbit are typically single
// digits), small enough that index-ordered consumers (OrderedWriter) buffer
// at most one window of out-of-order records instead of the whole sweep.
const decorrelateWindow = 256

// DecorrelateOrbits reorders a cached sweep's feed so symmetric framings of
// one orbit are spread apart instead of adjacent: Expand nests phase and
// reflection innermost, so a block of consecutive scenarios is one orbit,
// and feeding it to concurrent workers would serialise the pool on the
// singleflight lock (one worker computes the representative while the rest
// join the in-flight call and idle).  Within each window, untransformed
// framings go first: distinct orbits compute in parallel and the transformed
// framings become plain hits.  The reorder is deterministic, bounded to
// decorrelateWindow feed slots, and records keep their original Index, so
// exports, aggregation and sharding semantics are untouched — only the
// completion order (already unspecified) changes.
func DecorrelateOrbits(scenarios []Scenario) []Scenario {
	sorted := append([]Scenario(nil), scenarios...)
	for lo := 0; lo < len(sorted); lo += decorrelateWindow {
		hi := lo + decorrelateWindow
		if hi > len(sorted) {
			hi = len(sorted)
		}
		chunk := sorted[lo:hi]
		sort.SliceStable(chunk, func(i, j int) bool {
			if chunk[i].Phase != chunk[j].Phase {
				return chunk[i].Phase < chunk[j].Phase
			}
			return !chunk[i].Reflect && chunk[j].Reflect
		})
	}
	return sorted
}

// RunAll runs the scenarios and returns all records sorted by scenario
// index.  It returns the context error when the run was cut short.
func RunAll(ctx context.Context, scenarios []Scenario, opts Options) ([]Record, error) {
	recs := make([]Record, 0, len(scenarios))
	for rec := range Run(ctx, scenarios, opts) {
		recs = append(recs, rec)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	return recs, nil
}

// RunScenario executes a single scenario synchronously: it generates the
// network with netgen and drives it through the public ringsym facade, which
// verifies outcomes against the simulator's ground truth.  Panics anywhere in
// generation or protocol execution are recovered into a failed record.
func RunScenario(sc Scenario, opts Options) Record {
	//ringvet:allow ctxflow context-free compatibility wrapper: RunScenarioContext is the cancellable form
	return RunScenarioContext(context.Background(), sc, opts)
}

// RunScenarioContext is RunScenario with cancellation: when ctx is cancelled
// the in-flight protocol is aborted within one round and the scenario is
// recorded as failed with an error wrapping context.Canceled (or the context's
// cause), rather than running until the engine's round bound.
func RunScenarioContext(ctx context.Context, sc Scenario, opts Options) Record {
	var w Worker
	return w.Run(ctx, sc, opts)
}

// Worker runs scenarios one at a time for the goroutine that owns it,
// keeping one network that it resets in place for every scenario, so the
// ring state, the agents with their grown scratch buffers and the engine's
// scheduler arena survive a whole sweep instead of being rebuilt per
// scenario.  The network grows to the largest n the worker has run.  Cached
// and uncached scenarios alike run on it: a cache miss computes on the
// caller's goroutine (see memo.Cache.Do), so on this worker.  The zero value
// is ready to use; a Worker must not be shared between goroutines.
type Worker struct{ nw *ringsym.Network }

// Run executes one scenario, like RunScenarioContext, on the worker's
// network.
func (w *Worker) Run(ctx context.Context, sc Scenario, opts Options) (rec Record) {
	//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
	start := time.Now()
	if obs.On() {
		obs.Emit(obs.Event{
			Type: obs.ScenarioStart, Level: obs.LevelDebug,
			Task: string(sc.Task), Model: sc.Model, N: sc.N, Seed: sc.Seed, Index: sc.Index,
		})
	}
	rec = Record{Scenario: sc}
	defer func() {
		if r := recover(); r != nil {
			rec = Record{Scenario: sc, Status: StatusFailed, Error: fmt.Sprintf("panic: %v", r), Bound: rec.Bound, BoundStr: rec.BoundStr}
		}
		//ringvet:allow determinism wall time feeds Record.Wall, which the export layer strips (see runner_test "wall time leaked")
		rec.Wall = time.Since(start)
		if obs.On() {
			EmitScenarioDone(rec)
		}
	}()
	p, ok := prepare(&rec, opts)
	if !ok {
		return rec
	}
	if testHookScenario != nil {
		testHookScenario(sc)
	}

	if opts.Cache == nil {
		out, err := runSpec(ctx, w, p.spec, p.gen, sc)
		if err != nil {
			rec.Status = StatusFailed
			rec.Error = err.Error()
			return rec
		}
		rec.fill(out) // identity frame: the outcome is already in sc's frame
		return rec
	}

	// Cached path: run the canonical representative of the configuration's
	// orbit (so every orbit member computes the identical stored outcome) and
	// translate the result back into this scenario's frame through the task's
	// MapOutcome.
	out, kind, err := opts.Cache.c.Do(ctx, p.key, func(cctx context.Context) (task.Outcome, error) {
		return runSpec(cctx, w, p.spec, p.ccfg, sc)
	})
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		return rec
	}
	rec.fill(p.spec.MapOutcome(out, p.m))
	rec.Cache = kind.String()
	return rec
}

// ProbeCache answers a scenario purely from the memo cache: it returns the
// record (annotated as a hit) when the outcome of the scenario's canonical
// representative is already cached, and ok=false otherwise — when the cache
// is nil, the scenario is unsolvable/invalid (those paths never touch the
// cache), or the outcome simply is not there yet.  Nothing executes and no
// singleflight computation is joined, so a serving layer can answer hits on
// the request goroutine without occupying a pool worker; every false falls
// through to Worker.Run, which repeats the preparation and handles all
// error reporting.
func ProbeCache(sc Scenario, opts Options) (Record, bool) {
	if opts.Cache == nil {
		return Record{}, false
	}
	rec := Record{Scenario: sc}
	p, ok := prepare(&rec, opts)
	if !ok {
		return Record{}, false
	}
	out, ok := opts.Cache.c.Get(p.key)
	if !ok {
		return Record{}, false
	}
	rec.fill(p.spec.MapOutcome(out, p.m))
	rec.Cache = memo.Hit.String()
	// A probe hit never reaches Worker.Run, so its completion event is
	// emitted here: cache-served scenarios stay visible on the event spine.
	if obs.On() {
		EmitScenarioDone(rec)
	}
	return rec, true
}

// prepared is a scenario ready to execute: its task spec, its generated
// (possibly phase-rotated/reflected) configuration and, with a cache, the
// canonical representative of that configuration's orbit, the frame map
// back to the scenario and the cache key.
type prepared struct {
	spec task.Spec
	gen  engine.Config
	ccfg engine.Config
	m    canon.Map
	key  string
}

// prepare runs every step that precedes execution: parse the model, look up
// the task, compute the bound, check solvability, generate the
// configuration and, when opts carries a cache, canonicalize it and build
// the key.  It is the single source of that truth for both the execution
// path (Worker.Run) and the cache probe (ProbeCache): with one copy, the key
// the probe looks up cannot drift from the key the worker stores under.  The
// bound is set on rec as soon as the model and task are known; ok is false,
// with rec's status set, when the scenario fails or is unsolvable before
// anything runs.
func prepare(rec *Record, opts Options) (p prepared, ok bool) {
	sc := rec.Scenario
	fail := func(err error) (prepared, bool) {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		return prepared{}, false
	}
	model, err := ParseModel(sc.Model)
	if err != nil {
		return fail(err)
	}
	if p.spec, err = task.Lookup(string(sc.Task)); err != nil {
		return fail(err)
	}
	oddN := sc.N%2 == 1
	rec.Bound, rec.BoundStr = p.spec.Bound(model, oddN, sc.CommonSense, sc.N, sc.IDBound)
	if !p.spec.Solvable(model, oddN) {
		rec.Status = StatusUnsolvable
		return prepared{}, false
	}
	p.gen, err = netgen.Generate(netgen.Options{
		N:                   sc.N,
		IDBound:             sc.IDBound,
		Circ:                opts.Circ,
		Model:               model,
		MixedChirality:      sc.MixedChirality,
		ForceSplitChirality: sc.MixedChirality,
		Seed:                sc.Seed,
		MaxRounds:           opts.MaxRounds,
	})
	if err != nil {
		return fail(err)
	}
	if sc.Phase != 0 || sc.Reflect {
		if p.gen, err = canon.Transform(p.gen, sc.Phase, sc.Reflect); err != nil {
			return fail(err)
		}
	}
	if opts.Cache == nil {
		return p, true
	}
	if p.ccfg, p.m, err = canon.Canonicalize(p.gen); err != nil {
		return fail(err)
	}
	p.key = cacheKey(canon.Fingerprint(p.ccfg), sc)
	return p, true
}

// network returns a network for cfg: w's own network reset in place, or a
// fresh one on w's first scenario and after a failed reset (whose contract
// leaves the network undefined).
func (w *Worker) network(cfg ringsym.Config) (*ringsym.Network, error) {
	if w.nw != nil && w.nw.Reset(cfg) == nil {
		return w.nw, nil
	}
	nw, err := ringsym.NewNetwork(cfg)
	w.nw = nw
	return nw, err
}

// runSpec executes the scenario's task on the given configuration through
// the registry spec: the network comes from w (see Worker.network) behind
// the public facade (whose pipelines verify protocol outcomes against the
// simulator's ground truth), the spec runs, and the finished outcome is
// re-checked with the spec's own Verify before it may enter the cache or a
// record.
func runSpec(ctx context.Context, w *Worker, spec task.Spec, gen engine.Config, sc Scenario) (task.Outcome, error) {
	nw, err := w.network(ringsym.Config{
		Model:         gen.Model,
		Circumference: gen.Circ,
		Positions:     gen.Positions,
		IDs:           gen.IDs,
		IDBound:       gen.IDBound,
		Chirality:     gen.Chirality,
		MaxRounds:     gen.MaxRounds,
	})
	if err != nil {
		return task.Outcome{}, err
	}
	p := task.Params{
		N:              sc.N,
		IDBound:        gen.IDBound,
		MixedChirality: sc.MixedChirality,
		CommonSense:    sc.CommonSense,
		Seed:           sc.Seed,
	}
	out, err := spec.Run(ctx, nw, p)
	if err != nil {
		return task.Outcome{}, err
	}
	if err := spec.Verify(nw, p, out); err != nil {
		return task.Outcome{}, fmt.Errorf("%w: %v", ringsym.ErrVerification, err)
	}
	return out, nil
}

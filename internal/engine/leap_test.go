package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ringsym/internal/ring"
)

// The tests in this file pin the leap-execution contract: a machine written
// against the batching yield builders (YieldRoundN, YieldRoundSum,
// YieldRoundUntil, YieldSchedule) is observably identical — trace,
// displacement, round counts, outputs — to the same machine written with one
// YieldRound per round, across all three models, both chirality regimes and
// both parities.

// leapOp is one step of a generated protocol script.
type leapOp struct {
	kind   int // 0 YieldRound, 1 YieldRoundN, 2 YieldSchedule, 3 YieldRoundSum, 4 YieldRoundUntil
	dir    ring.Direction
	dirs   []ring.Direction
	k      int
	target int64 // RoundUntil displacement target
}

// randDir picks a model-appropriate direction.
func randDir(rng *rand.Rand, model ring.Model) ring.Direction {
	if model.AllowsIdle() && rng.Intn(5) == 0 {
		return ring.Idle
	}
	if rng.Intn(2) == 0 {
		return ring.Clockwise
	}
	return ring.Anticlockwise
}

// scriptFor deterministically generates an agent's protocol script.  The
// script depends only on the agent's identity, so the batched and expanded
// protocols follow identical direction sequences.
func scriptFor(id int, seed int64, model ring.Model, full int64, ops int) []leapOp {
	rng := rand.New(rand.NewSource(seed ^ int64(id)*0x9e3779b97f4a7c))
	script := make([]leapOp, 0, ops)
	for len(script) < ops {
		op := leapOp{kind: rng.Intn(5), dir: randDir(rng, model)}
		switch op.kind {
		case 1, 3:
			op.k = 1 + rng.Intn(7)
		case 2:
			op.dirs = make([]ring.Direction, 1+rng.Intn(6))
			for i := range op.dirs {
				op.dirs[i] = randDir(rng, model)
			}
		case 4:
			op.k = 1 + rng.Intn(8)
			op.target = 2 * (rng.Int63n(full) / 2)
		}
		script = append(script, op)
	}
	return script
}

// leapTrace is everything observable from one protocol run.
type leapTrace struct {
	obs  []Observation
	sums []int64
	disp int64
	used int
}

func (tr leapTrace) equal(other leapTrace) bool {
	if len(tr.obs) != len(other.obs) || len(tr.sums) != len(other.sums) ||
		tr.disp != other.disp || tr.used != other.used {
		return false
	}
	for i := range tr.obs {
		if tr.obs[i] != other.obs[i] {
			return false
		}
	}
	for i := range tr.sums {
		if tr.sums[i] != other.sums[i] {
			return false
		}
	}
	return true
}

// batchedMachine executes the script through the batching yield builders,
// one yield per op.
func batchedMachine(seed int64, ops int) func(a *Agent) *Proto[leapTrace] {
	return func(a *Agent) *Proto[leapTrace] {
		return NewProto(func(done func(leapTrace) (Yield, Cont)) (Yield, Cont) {
			script := scriptFor(a.ID(), seed, a.Model(), a.FullCircle(), ops)
			var tr leapTrace
			var step func(i int) (Yield, Cont)
			step = func(i int) (Yield, Cont) {
				if i == len(script) {
					tr.disp = a.Displacement()
					tr.used = a.RoundsUsed()
					return done(tr)
				}
				op := script[i]
				var y Yield
				switch op.kind {
				case 0:
					y = a.YieldRound(op.dir)
				case 1:
					y = a.YieldRoundN(op.dir, op.k)
				case 2:
					y = a.YieldSchedule(op.dirs)
				case 3:
					y = a.YieldRoundSum(op.dir, op.k)
				case 4:
					y = a.YieldRoundUntil(op.dir, op.target, op.k)
				}
				return y, func(in Resume) (Yield, Cont) {
					if op.kind == 3 {
						tr.sums = append(tr.sums, in.Sum)
					} else {
						tr.obs = append(tr.obs, in.Obs...)
					}
					return step(i + 1)
				}
			}
			return step(0)
		})
	}
}

// expandedMachine executes the same script with one YieldRound per round:
// every op is unrolled into its per-round directions, RoundNSum sums the
// single observations and RoundUntil stops on the agent's own displacement,
// so every round is its own crossing on the per-round kernel path.
func expandedMachine(seed int64, ops int) func(a *Agent) *Proto[leapTrace] {
	return func(a *Agent) *Proto[leapTrace] {
		return NewProto(func(done func(leapTrace) (Yield, Cont)) (Yield, Cont) {
			full := a.FullCircle()
			script := scriptFor(a.ID(), seed, a.Model(), full, ops)
			var tr leapTrace
			var sum int64
			// round plays round j of op i.
			var round func(i, j int) (Yield, Cont)
			round = func(i, j int) (Yield, Cont) {
				if i == len(script) {
					tr.disp = a.Displacement()
					tr.used = a.RoundsUsed()
					return done(tr)
				}
				op := script[i]
				n, dir := op.k, op.dir
				if op.kind == 0 {
					n = 1
				}
				if op.kind == 2 {
					n, dir = len(op.dirs), op.dirs[min(j, len(op.dirs)-1)]
				}
				if j == n {
					if op.kind == 3 {
						tr.sums = append(tr.sums, sum)
						sum = 0
					}
					return round(i+1, 0)
				}
				return a.YieldRound(dir), func(in Resume) (Yield, Cont) {
					obs := in.Obs[0]
					if op.kind == 3 {
						sum = (sum + obs.Dist) % full
						return round(i, j+1)
					}
					tr.obs = append(tr.obs, obs)
					if op.kind == 4 && a.Displacement() == op.target {
						return round(i, n)
					}
					return round(i, j+1)
				}
			}
			return round(0, 0)
		})
	}
}

// checkBatchedMatchesExpanded runs generated scripts batched and expanded on
// the scheduler, across all three models, both chirality regimes and both
// parities, and demands byte-identical traces, displacements and round
// counts, with exactly one crossing per round on the expanded run.  It keeps
// the leap executor's closed form checked against the per-round kernel path.
func checkBatchedMatchesExpanded(t *testing.T, seedBase int64) {
	for _, model := range []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive} {
		for _, oddN := range []bool{false, true} {
			for _, mixed := range []bool{false, true} {
				name := fmt.Sprintf("%v/odd=%v/mixed=%v", model, oddN, mixed)
				t.Run(name, func(t *testing.T) {
					for trial := 0; trial < 8; trial++ {
						seed := int64(1000*trial) + seedBase
						rng := rand.New(rand.NewSource(seed))
						cfg := leapTestConfig(rng, model, oddN, mixed)
						build := func() *Network {
							nw, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							return nw
						}
						const ops = 12
						nwB, nwE := build(), build()
						batched, errB := RunFSM(nwB, batchedMachine(seed, ops))
						expanded, errE := RunFSM(nwE, expandedMachine(seed, ops))
						if errB != nil || errE != nil {
							t.Fatalf("trial %d: errors batched=%v expanded=%v", trial, errB, errE)
						}
						if batched.Rounds != expanded.Rounds {
							t.Fatalf("trial %d: rounds batched=%d expanded=%d", trial, batched.Rounds, expanded.Rounds)
						}
						for i := range batched.Outputs {
							if !batched.Outputs[i].equal(expanded.Outputs[i]) {
								t.Fatalf("trial %d agent %d: batched != expanded\nbatched:  %+v\nexpanded: %+v",
									trial, i, batched.Outputs[i], expanded.Outputs[i])
							}
						}
						if nwE.Crossings() != nwE.Rounds() {
							t.Fatalf("trial %d: expanded crossings %d != rounds %d", trial, nwE.Crossings(), nwE.Rounds())
						}
					}
				})
			}
		}
	}
}

// leapTestConfig builds a deterministic pseudo-random configuration.
func leapTestConfig(rng *rand.Rand, model ring.Model, oddN, mixed bool) Config {
	n := 6 + 2*rng.Intn(4)
	if oddN {
		n++
	}
	pos := make([]int64, n)
	p := int64(0)
	for i := range pos {
		p += 1 + int64(rng.Intn(9))
		pos[i] = p
	}
	circ := p + 1 + int64(rng.Intn(9))
	if circ%2 != 0 {
		circ++
	}
	ids := rng.Perm(4 * n)[:n]
	for i := range ids {
		ids[i]++
	}
	var chir []bool
	if mixed {
		chir = make([]bool, n)
		same := true
		for i := range chir {
			chir[i] = rng.Intn(2) == 0
			if i > 0 && chir[i] != chir[0] {
				same = false
			}
		}
		if same {
			chir[n/2] = !chir[0]
		}
	}
	return Config{Model: model, Circ: circ, Positions: pos, IDs: ids, IDBound: 4 * n, Chirality: chir}
}

// TestLeapStepEquivalence is the randomized property test of leap execution:
// mixed RoundN/RoundSchedule/RoundNSum/RoundUntil/Round scripts produce
// byte-identical traces and outputs to their all-single-round expansion.
func TestLeapStepEquivalence(t *testing.T) {
	checkBatchedMatchesExpanded(t, 17)
}

// TestRoundUntilStopsExactly pins the closed-form stop: a constant-rotation
// sweep submitted as one oversized YieldRoundUntil batch stops exactly at the
// round the per-round loop would have, with the trace ending at the return
// round.
func TestRoundUntilStopsExactly(t *testing.T) {
	cfg := testConfig(ring.Basic, nil) // 5 agents
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.N()
	res, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return NewProto(func(done func(int) (Yield, Cont)) (Yield, Cont) {
			// Rotation index 1: ID 1 moves clockwise, everybody else
			// anticlockwise... that is rotation 1-4 = -3 mod 5 = 2; either way
			// the sweep returns to the start after exactly n rounds
			// (gcd(r, n) = 1).
			dir := ring.Anticlockwise
			if a.ID() == 1 {
				dir = ring.Clockwise
			}
			return a.YieldRoundUntil(dir, 0, 10*n), func(in Resume) (Yield, Cont) {
				if a.Displacement() != 0 {
					return Abort(fmt.Errorf("stopped at displacement %d", a.Displacement()))
				}
				return done(len(in.Obs))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != n {
		t.Fatalf("sweep consumed %d rounds, want %d", res.Rounds, n)
	}
	for i, l := range res.Outputs {
		if l != n {
			t.Errorf("agent %d trace length %d, want %d", i, l, n)
		}
	}
}

// TestRoundNBudgetClamp pins the exact-fit side of MaxRounds under batching:
// a batch that ends exactly on the budget succeeds.  The overrun side (the
// clamp to the budget and ErrMaxRoundsExceed) is TestFSMBudgetExhaustion.
func TestRoundNBudgetClamp(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 5
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundN(ring.Clockwise, 5), func(Resume) (Yield, Cont) { return done(struct{}{}) }
		})
	}); err != nil {
		t.Fatalf("exact-budget batch failed: %v", err)
	}
	if nw.Rounds() != 5 {
		t.Fatalf("state executed %d rounds, want 5", nw.Rounds())
	}
}

// TestBatchValidation pins the argument checks of the yield builders: every
// invalid request yields an abort carrying the right error and leaves the
// agent's round count untouched.
func TestBatchValidation(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	a := nw.agents[0]
	for _, tc := range []struct {
		name string
		y    Yield
		want error
	}{
		{"k = 0", a.YieldRoundN(ring.Clockwise, 0), ring.ErrBadRoundCount},
		{"idle in basic model", a.YieldRoundN(ring.Idle, 2), ErrIdleNotAllowed},
		{"bad direction", a.YieldRound(ring.Direction(55)), ErrBadDirection},
		{"empty schedule", a.YieldSchedule(nil), ring.ErrBadRoundCount},
		{"idle in schedule", a.YieldSchedule([]ring.Direction{ring.Clockwise, ring.Idle}), ErrIdleNotAllowed},
		{"negative k sum", a.YieldRoundSum(ring.Clockwise, -1), ring.ErrBadRoundCount},
		{"zero k until", a.YieldRoundUntil(ring.Clockwise, 0, 0), ring.ErrBadRoundCount},
	} {
		if !errors.Is(tc.y.abort, tc.want) {
			t.Errorf("%s: abort %v, want %v", tc.name, tc.y.abort, tc.want)
		}
	}
	for _, target := range []int64{-2, a.FullCircle()} {
		if y := a.YieldRoundUntil(ring.Clockwise, target, 3); y.abort == nil {
			t.Errorf("RoundUntil target %d accepted", target)
		}
	}
	if a.RoundsUsed() != 0 || nw.Rounds() != 0 {
		t.Fatalf("validation consumed rounds: agent %d, network %d", a.RoundsUsed(), nw.Rounds())
	}
}

// TestLeapCountersAdvance checks the process-wide counters: a batched run
// must raise rounds much faster than crossings.
func TestLeapCountersAdvance(t *testing.T) {
	before := CounterSnapshot()
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	const k = 64
	if _, err := RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundSum(ring.Clockwise, k), func(Resume) (Yield, Cont) { return done(struct{}{}) }
		})
	}); err != nil {
		t.Fatal(err)
	}
	after := CounterSnapshot()
	if got := after.Rounds - before.Rounds; got < k {
		t.Errorf("rounds counter advanced by %d, want >= %d", got, k)
	}
	// The whole run is one aligned batch; other tests may run in parallel,
	// so only bound the delta loosely from above via this run's own shape:
	// crossings must grow strictly slower than rounds.
	if dr, dc := after.Rounds-before.Rounds, after.LeapBatches-before.LeapBatches; dc >= dr {
		t.Errorf("crossings %d >= rounds %d: leap batching had no effect", dc, dr)
	}
}

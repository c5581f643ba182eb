package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ringsym/internal/ring"
)

// The tests in this file pin the scheduler: arena reuse, error surfaces,
// budgets, panics, cancellation and run exclusivity.

// TestFSMSchedulerEquivalence runs a second family of generated scripts
// batched and expanded (see checkBatchedMatchesExpanded).
func TestFSMSchedulerEquivalence(t *testing.T) {
	checkBatchedMatchesExpanded(t, 4242)
}

// TestFSMBatchReuse pins arena reuse: sequential scenarios of varying n
// through one network, Reset between trials so its scheduler arena shrinks
// and regrows within capacity, produce the same results as fresh networks.
func TestFSMBatchReuse(t *testing.T) {
	var reused *Network
	for trial := 0; trial < 6; trial++ {
		seed := int64(31*trial) + 7
		rng := rand.New(rand.NewSource(seed))
		cfg := leapTestConfig(rng, ring.Perceptive, trial%2 == 0, true)
		if reused == nil {
			nw, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reused = nw
		} else if err := reused.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const ops = 9
		shared, errS := RunFSM(reused, batchedMachine(seed, ops))
		alone, errF := RunFSM(fresh, batchedMachine(seed, ops))
		if errS != nil || errF != nil {
			t.Fatalf("trial %d: errors reused=%v fresh=%v", trial, errS, errF)
		}
		if shared.Rounds != alone.Rounds {
			t.Fatalf("trial %d: reused network ran %d rounds, fresh %d", trial, shared.Rounds, alone.Rounds)
		}
		for i := range shared.Outputs {
			if !shared.Outputs[i].equal(alone.Outputs[i]) {
				t.Fatalf("trial %d agent %d: reused-network run differs from fresh run", trial, i)
			}
		}
	}
}

// TestArenaClearedAfterPanicAndReset pins that a run's leftovers do not leak
// into the next run on the same network: a run whose machines panic leaves
// step errors in the arena, and a Reset to a smaller n keeps those columns
// within capacity, so the clean run that follows must start from a cleared
// arena to match a fresh network.
func TestArenaClearedAfterPanicAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	big := leapTestConfig(rng, ring.Lazy, true, true)
	nw, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		dir := func(int) ring.Direction { panic("machine meltdown") }
		return perRound(a, 1, dir, nil, a.RoundsUsed)
	}); !errors.Is(err, ErrProtocolPanic) {
		t.Fatalf("panicking run: got %v, want ErrProtocolPanic", err)
	}
	small := testConfig(ring.Lazy, []bool{true, false, true, true, false})
	if err := nw.Reset(small); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	const seed, ops = 5, 12
	got, errR := RunFSM(nw, batchedMachine(seed, ops))
	want, errF := RunFSM(fresh, batchedMachine(seed, ops))
	if errR != nil || errF != nil {
		t.Fatalf("clean run: reused=%v fresh=%v", errR, errF)
	}
	if got.Rounds != want.Rounds || len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("clean run: %d rounds/%d outputs, fresh %d/%d", got.Rounds, len(got.Outputs), want.Rounds, len(want.Outputs))
	}
	for i := range got.Outputs {
		if !got.Outputs[i].equal(want.Outputs[i]) {
			t.Fatalf("agent %d: run after panic and Reset differs from a fresh network", i)
		}
	}
}

// TestFSMValidationAborts pins the abort channel: invalid yield parameters
// terminate the machine with the builders' error values, without consuming
// rounds.
func TestFSMValidationAborts(t *testing.T) {
	cases := []struct {
		name  string
		yield func(a *Agent) Yield
		want  error
	}{
		{"zero count", func(a *Agent) Yield { return a.YieldRoundN(ring.Clockwise, 0) }, ring.ErrBadRoundCount},
		{"idle in basic", func(a *Agent) Yield { return a.YieldRound(ring.Idle) }, ErrIdleNotAllowed},
		{"empty schedule", func(a *Agent) Yield { return a.YieldSchedule(nil) }, ring.ErrBadRoundCount},
		{"negative sum count", func(a *Agent) Yield { return a.YieldRoundSum(ring.Clockwise, -1) }, ring.ErrBadRoundCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(testConfig(ring.Basic, nil))
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunFSM(nw, func(a *Agent) *Proto[struct{}] {
				return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
					return tc.yield(a), func(Resume) (Yield, Cont) { return done(struct{}{}) }
				})
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if nw.Rounds() != 0 {
				t.Fatalf("aborted validation consumed %d rounds", nw.Rounds())
			}
		})
	}

	// RoundUntil's target range check.
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundUntil(ring.Clockwise, -2, 3), func(Resume) (Yield, Cont) { return done(struct{}{}) }
		})
	}); err == nil {
		t.Fatal("negative RoundUntil target accepted")
	}
}

// TestFSMBudgetExhaustion pins ErrMaxRoundsExceed on the scheduler: the clamp
// executes exactly the budgeted rounds, as many as the per-round path would.
func TestFSMBudgetExhaustion(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 5
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRoundN(ring.Clockwise, 9), func(in Resume) (Yield, Cont) {
				return done(struct{}{})
			}
		})
	})
	if !errors.Is(err, ErrMaxRoundsExceed) {
		t.Fatalf("got %v, want ErrMaxRoundsExceed", err)
	}
	if nw.Rounds() != 5 {
		t.Fatalf("state executed %d rounds, want the full budget of 5", nw.Rounds())
	}
}

// TestFSMStepPanic pins panic containment: a panicking continuation fails its
// own machine with ErrProtocolPanic while the other machines finish normally.
func TestFSMStepPanic(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return NewProto(func(done func(int) (Yield, Cont)) (Yield, Cont) {
			return a.YieldRound(ring.Clockwise), func(in Resume) (Yield, Cont) {
				if a.ID() == 1 {
					panic("machine meltdown")
				}
				return done(a.RoundsUsed())
			}
		})
	})
	if !errors.Is(err, ErrProtocolPanic) {
		t.Fatalf("got %v, want ErrProtocolPanic", err)
	}
	for i, used := range res.Outputs {
		if nw.IDOf(i) != 1 && used != 1 {
			t.Errorf("agent %d: rounds used %d, want 1", i, used)
		}
	}
}

// TestFSMCancellation pins cancellation: a protocol that would run forever is
// cut off by a cancel fired mid-run from inside a step, every still-pending
// machine fails with the context error within one crossing, and the network
// is not broken by the cancellation.
func TestFSMCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	const cancelAfter = 3
	res, err := RunFSMContext(ctx, nw, func(a *Agent) *Proto[int] {
		dir := func(i int) ring.Direction {
			if i == cancelAfter && a.ID() == 1 {
				cancel()
			}
			return ring.Clockwise
		}
		return perRound(a, math.MaxInt, dir, nil, a.RoundsUsed)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The cancel fires while the machines request round cancelAfter+1, and
	// the scheduler checks ctx before executing it.
	if res.Rounds != cancelAfter {
		t.Fatalf("run consumed %d rounds, want %d", res.Rounds, cancelAfter)
	}
	if _, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return perRound(a, 1, constDir(ring.Clockwise), nil, a.RoundsUsed)
	}); err != nil {
		t.Fatalf("run after cancelled run failed: %v", err)
	}
}

// TestRunContextCancellationStopsRunawayProtocol pins cancellation by another
// goroutine, the way a caller's deadline or a daemon's shutdown arrives: a
// protocol that would otherwise spin until the round budget stops at the
// crossing after the cancel, with the run error wrapping context.Canceled,
// and the network can run again.  The step that triggers the cancel waits
// for the other goroutine to finish it, so the landing round is exact.
func TestRunContextCancellationStopsRunawayProtocol(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAfter = 10
	res, err := RunFSMContext(ctx, nw, func(a *Agent) *Proto[int] {
		dir := func(int) ring.Direction {
			if a.ID() == 7 && a.RoundsUsed() == cancelAfter {
				cancelled := make(chan struct{})
				go func() {
					cancel()
					close(cancelled)
				}()
				<-cancelled
			}
			return ring.Clockwise
		}
		return perRound(a, math.MaxInt, dir, nil, a.RoundsUsed)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an error wrapping context.Canceled", err)
	}
	// Without the cancel the protocol would run until DefaultMaxRounds.
	if res.Rounds != cancelAfter {
		t.Errorf("run consumed %d rounds after cancellation at round %d", res.Rounds, cancelAfter)
	}
	// The network is not broken by a cancellation: it can run again.
	if _, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return perRound(a, 1, constDir(ring.Clockwise), nil, a.RoundsUsed)
	}); err != nil {
		t.Fatalf("run after cancelled run failed: %v", err)
	}
}

// TestRunContextPreCancelled verifies that an already-cancelled context
// prevents the run from starting at all: no machine is built and no round
// executes.
func TestRunContextPreCancelled(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	built := false
	_, err = RunFSMContext(ctx, nw, func(a *Agent) *Proto[struct{}] {
		built = true
		return perRound(a, 1, constDir(ring.Clockwise), nil, func() struct{} { return struct{}{} })
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if built {
		t.Error("machine built despite pre-cancelled context")
	}
	if nw.Rounds() != 0 {
		t.Errorf("rounds executed: %d", nw.Rounds())
	}
}

// TestConcurrentRunRejected verifies run exclusivity: a second RunFSM (or a
// Reset) on a network whose run is still in flight — here started from inside
// a step of that run — fails with ErrRunInProgress instead of corrupting the
// shared state, the outer run is untouched by the rejected attempt (its
// outputs and rounds equal the same protocol on a fresh network), and the
// network is reusable once the first run finished.
func TestConcurrentRunRejected(t *testing.T) {
	cfg := testConfig(ring.Basic, []bool{true, false, false, true, true})
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nestedRun, nestedReset error
	outer := func(nested bool) func(a *Agent) *Proto[[]Observation] {
		return func(a *Agent) *Proto[[]Observation] {
			var seen []Observation
			dir := func(i int) ring.Direction {
				if nested && a.ID() == 7 && i == 2 {
					_, nestedRun = RunFSM(nw, func(a *Agent) *Proto[int] {
						return perRound(a, 0, nil, nil, a.RoundsUsed)
					})
					nestedReset = nw.Reset(cfg)
				}
				if (a.ID()+i)%3 == 0 {
					return ring.Anticlockwise
				}
				return ring.Clockwise
			}
			record := func(_ int, o Observation) { seen = append(seen, o) }
			return perRound(a, 3+a.ID()%3, dir, record, func() []Observation { return seen })
		}
	}
	got, err := RunFSM(nw, outer(true))
	if err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	if !errors.Is(nestedRun, ErrRunInProgress) {
		t.Errorf("nested RunFSM: got %v, want ErrRunInProgress", nestedRun)
	}
	if !errors.Is(nestedReset, ErrRunInProgress) {
		t.Errorf("Reset during a run: got %v, want ErrRunInProgress", nestedReset)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFSM(fresh, outer(false))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds {
		t.Errorf("outer run: %d rounds, fresh network %d", got.Rounds, want.Rounds)
	}
	for i := range want.Outputs {
		if !slices.Equal(got.Outputs[i], want.Outputs[i]) {
			t.Errorf("agent %d: outer run observed %v, fresh network %v", i, got.Outputs[i], want.Outputs[i])
		}
	}
	if _, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return perRound(a, 1, constDir(ring.Clockwise), nil, a.RoundsUsed)
	}); err != nil {
		t.Fatalf("run after the first finished failed: %v", err)
	}
}

// TestRunErrorShapes pins the layout of a max-rounds failure: the run error
// wraps ErrMaxRoundsExceed, the result still reports the executed rounds, and
// every agent's output reflects the rounds it took part in.
func TestRunErrorShapes(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 2
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var used []int
	res, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		used = append(used, 0)
		i := len(used) - 1
		return perRound(a, math.MaxInt, constDir(ring.Clockwise), func(int, Observation) { used[i] = a.RoundsUsed() }, a.RoundsUsed)
	})
	if !errors.Is(err, ErrMaxRoundsExceed) {
		t.Fatalf("got %v", err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	for i, u := range used {
		if u != 2 {
			t.Errorf("agent %d used %d rounds", i, u)
		}
	}
}

// TestExecutorPanicFailsRunInsteadOfDeadlocking injects a panic into the
// crossing executor and verifies the run fails with a broken-network error
// instead of unwinding the caller, and that the network stays broken.
func TestExecutorPanicFailsRunInsteadOfDeadlocking(t *testing.T) {
	fired := false
	testHookExecuteRound = func() {
		if !fired {
			fired = true
			panic("injected executor failure")
		}
	}
	defer func() { testHookExecuteRound = nil }()

	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	one := func(a *Agent) *Proto[int] {
		return perRound(a, 1, constDir(ring.Clockwise), nil, a.RoundsUsed)
	}
	if _, err := RunFSM(nw, one); !errors.Is(err, ErrNetworkBroken) {
		t.Fatalf("got %v, want ErrNetworkBroken", err)
	}
	if _, err := RunFSM(nw, one); !errors.Is(err, ErrNetworkBroken) {
		t.Fatalf("run on broken network: got %v, want ErrNetworkBroken", err)
	}
}

// TestExactRoundBudgetSucceeds pins that a protocol terminating after
// exactly MaxRounds single rounds succeeds: exhausting the budget is only an
// error while agents still want another round.
func TestExactRoundBudgetSucceeds(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 3
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		return perRound(a, 3, constDir(ring.Clockwise), nil, a.RoundsUsed)
	})
	if err != nil {
		t.Fatalf("exact-budget run failed: %v", err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

// TestManyAgentsSmoke runs a larger population with mixed early exits.
func TestManyAgentsSmoke(t *testing.T) {
	const n = 257
	positions := make([]int64, n)
	ids := make([]int, n)
	for i := range positions {
		positions[i] = int64(4 * i)
		ids[i] = i + 1
	}
	nw, err := New(Config{Model: ring.Perceptive, Circ: 4 * n * 2, Positions: positions, IDs: ids, IDBound: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[int64] {
		dir := func(i int) ring.Direction {
			if (a.ID()+i)%3 == 0 {
				return ring.Anticlockwise
			}
			return ring.Clockwise
		}
		return perRound(a, 1+a.ID()%7, dir, nil, a.Displacement)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
}

// malformedMachine yields a continuation without a batch, which Proto forbids
// and the scheduler must reject rather than wedge.
type malformedMachine struct{ stepped bool }

func (m *malformedMachine) Step(Resume) (Yield, bool) {
	if m.stepped {
		return Yield{}, true
	}
	m.stepped = true
	return Yield{}, false
}

// TestFSMMalformedYield pins the scheduler's guard against hand-written
// machines that yield without a round batch.
func TestFSMMalformedYield(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.beginRun(); err != nil {
		t.Fatal(err)
	}
	defer nw.endRun()
	b := &nw.arena
	b.prepare(nw)
	for i := range b.machines {
		b.machines[i] = &malformedMachine{}
	}
	if err := b.run(context.Background(), nw); err != nil {
		t.Fatalf("run-level error %v, want per-machine step errors", err)
	}
	for i, err := range b.stepErr {
		if err == nil {
			t.Errorf("machine %d: malformed yield accepted", i)
		}
	}
}

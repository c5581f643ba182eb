package engine

import (
	"errors"
	"math"
	"testing"

	"ringsym/internal/ring"
)

func testConfig(model ring.Model, chirality []bool) Config {
	return Config{
		Model:     model,
		Circ:      1000,
		Positions: []int64{0, 100, 300, 600, 800},
		IDs:       []int{7, 3, 12, 9, 1},
		IDBound:   16,
		Chirality: chirality,
	}
}

// perRound builds a machine that plays rounds single rounds: dir(i) chooses
// the direction of round i, obs (if non-nil) receives its observation, and
// result computes the machine's output once the rounds are done.  Every
// callback runs inside the machine's steps, so a panic in one is a protocol
// panic.
func perRound[T any](a *Agent, rounds int, dir func(i int) ring.Direction, obs func(i int, o Observation), result func() T) *Proto[T] {
	return NewProto(func(done func(T) (Yield, Cont)) (Yield, Cont) {
		var step func(i int) (Yield, Cont)
		step = func(i int) (Yield, Cont) {
			if i == rounds {
				return done(result())
			}
			return a.YieldRound(dir(i)), func(in Resume) (Yield, Cont) {
				if obs != nil {
					obs(i, in.Obs[0])
				}
				return step(i + 1)
			}
		}
		return step(0)
	})
}

// constDir is a perRound direction function that always returns dir.
func constDir(dir ring.Direction) func(int) ring.Direction {
	return func(int) ring.Direction { return dir }
}

func TestNewValidation(t *testing.T) {
	base := testConfig(ring.Basic, nil)

	bad := base
	bad.IDs = []int{7, 3, 12, 9}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("short IDs: got %v", err)
	}

	bad = base
	bad.IDs = []int{7, 3, 12, 9, 3}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("duplicate IDs: got %v", err)
	}

	bad = base
	bad.IDs = []int{7, 3, 12, 9, 17}
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("out-of-range ID: got %v", err)
	}

	bad = base
	bad.IDBound = 3
	if _, err := New(bad); !errors.Is(err, ErrBadIDs) {
		t.Errorf("IDBound < n: got %v", err)
	}

	bad = base
	bad.Chirality = []bool{true, false}
	if _, err := New(bad); !errors.Is(err, ErrBadChirality) {
		t.Errorf("bad chirality: got %v", err)
	}

	bad = base
	bad.Positions = []int64{0, 100}
	bad.IDs = []int{7, 3}
	if _, err := New(bad); err == nil {
		t.Error("n<=4 accepted without AllowSmall")
	}

	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	nw, err := New(testConfig(ring.Perceptive, []bool{true, false, true, false, true}))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 5 || nw.Model() != ring.Perceptive || nw.Circ() != 1000 || nw.FullCircle() != 2000 {
		t.Error("basic accessors wrong")
	}
	if nw.IDOf(2) != 12 || nw.IndexOfID(12) != 2 || nw.IndexOfID(999) != -1 {
		t.Error("ID accessors wrong")
	}
	if nw.ChiralityOf(0) != true || nw.ChiralityOf(1) != false {
		t.Error("chirality accessors wrong")
	}
	p := nw.InitialPositions()
	p[0] = 42
	if nw.InitialPositions()[0] != 0 {
		t.Error("InitialPositions aliases internal state")
	}
	if got := nw.CurrentPositions(); got[3] != 600 {
		t.Errorf("CurrentPositions = %v", got)
	}
	if got := nw.Gaps(); got[0] != 100 {
		t.Errorf("Gaps = %v", got)
	}
}

// TestSingleRoundObservations checks dist() translation into each agent's own
// frame for a mixed-chirality network.
func TestSingleRoundObservations(t *testing.T) {
	chir := []bool{true, true, false, true, false}
	nw, err := New(testConfig(ring.Perceptive, chir))
	if err != nil {
		t.Fatal(err)
	}
	// Every agent chooses its own clockwise; flipped agents therefore move
	// objectively anticlockwise: nC=3, nA=2, rotation 1.
	res, err := RunFSM(nw, func(a *Agent) *Proto[Observation] {
		var first Observation
		return perRound(a, 1, constDir(ring.Clockwise), func(_ int, o Observation) { first = o }, func() Observation { return first })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// Objective clockwise displacements (half-ticks): agent i moves to the
	// next slot: gaps 100,200,300,200,200 -> dist 200,400,600,400,400.
	wantObjective := []int64{200, 400, 600, 400, 400}
	for i, obs := range res.Outputs {
		want := wantObjective[i]
		if !chir[i] {
			want = nw.FullCircle() - want
		}
		if obs.Dist != want {
			t.Errorf("agent %d dist = %d, want %d", i, obs.Dist, want)
		}
		if !obs.Collided {
			t.Errorf("agent %d should have collided", i)
		}
	}
	if nw.Rounds() != 1 {
		t.Errorf("network rounds = %d", nw.Rounds())
	}
}

func TestAgentIdentityExposure(t *testing.T) {
	nw, err := New(testConfig(ring.Lazy, nil))
	if err != nil {
		t.Fatal(err)
	}
	type ident struct {
		id, bound int
		parity    Parity
		model     ring.Model
		circ      int64
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[ident] {
		return perRound(a, 0, nil, nil, func() ident {
			return ident{a.ID(), a.IDBound(), a.NParity(), a.Model(), a.FullCircle()}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out.id != nw.IDOf(i) {
			t.Errorf("agent %d id = %d", i, out.id)
		}
		if out.bound != 16 || out.parity != ParityOdd || out.model != ring.Lazy || out.circ != 2000 {
			t.Errorf("agent %d identity = %+v", i, out)
		}
	}
	if res.Rounds != 0 {
		t.Errorf("identity-only protocol used %d rounds", res.Rounds)
	}
}

func TestHiddenParity(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.HideParity = true
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[Parity] {
		return perRound(a, 0, nil, nil, a.NParity)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Outputs {
		if p != ParityUnknown {
			t.Fatalf("parity = %v, want unknown", p)
		}
	}
}

func TestIdleRejectedInBasicModel(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return perRound(a, 1, constDir(ring.Idle), nil, func() struct{} { return struct{}{} })
	})
	if !errors.Is(err, ErrIdleNotAllowed) {
		t.Fatalf("got %v, want ErrIdleNotAllowed", err)
	}
}

func TestInvalidDirectionRejected(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFSM(nw, func(a *Agent) *Proto[struct{}] {
		return perRound(a, 1, constDir(ring.Direction(55)), nil, func() struct{} { return struct{}{} })
	})
	if !errors.Is(err, ErrBadDirection) {
		t.Fatalf("got %v, want ErrBadDirection", err)
	}
}

func TestMaxRoundsEnforced(t *testing.T) {
	cfg := testConfig(ring.Basic, nil)
	cfg.MaxRounds = 3
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFSM(nw, func(a *Agent) *Proto[int] {
		return perRound(a, math.MaxInt, constDir(ring.Clockwise), nil, a.RoundsUsed)
	})
	if !errors.Is(err, ErrMaxRoundsExceed) {
		t.Fatalf("got %v, want ErrMaxRoundsExceed", err)
	}
	if nw.Rounds() != 3 {
		t.Fatalf("rounds executed = %d, want 3", nw.Rounds())
	}
}

func TestProtocolPanicIsRecovered(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFSM(nw, func(a *Agent) *Proto[int] {
		dir := func(int) ring.Direction {
			if a.ID() == 12 {
				panic("boom")
			}
			return ring.Clockwise
		}
		return perRound(a, 1, dir, nil, a.RoundsUsed)
	})
	if !errors.Is(err, ErrProtocolPanic) {
		t.Fatalf("got %v, want ErrProtocolPanic", err)
	}
}

// TestEarlyReturningAgentGetsDefaultDirection verifies that a protocol whose
// agents finish after different numbers of rounds still completes: finished
// agents are assigned their default direction.
func TestEarlyReturningAgentGetsDefaultDirection(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, func(a *Agent) *Proto[int] {
		roundsWanted := 1
		if a.ID() == 7 {
			roundsWanted = 4
		}
		return perRound(a, roundsWanted, constDir(ring.Clockwise), nil, a.RoundsUsed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("total rounds = %d, want 4", res.Rounds)
	}
	for i, used := range res.Outputs {
		want := 1
		if nw.IDOf(i) == 7 {
			want = 4
		}
		if used != want {
			t.Errorf("agent %d used %d rounds, want %d", i, used, want)
		}
	}
}

// TestSequentialRunsShareState verifies that consecutive RunFSM invocations
// continue from the current ring state and keep counting rounds.
func TestSequentialRunsShareState(t *testing.T) {
	nw, err := New(testConfig(ring.Basic, nil))
	if err != nil {
		t.Fatal(err)
	}
	one := func(a *Agent) *Proto[struct{}] {
		return perRound(a, 1, constDir(ring.Anticlockwise), nil, func() struct{} { return struct{}{} })
	}
	if _, err := RunFSM(nw, one); err != nil {
		t.Fatal(err)
	}
	res, err := RunFSM(nw, one)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("second run rounds = %d, want 1", res.Rounds)
	}
	if nw.Rounds() != 2 {
		t.Fatalf("network rounds = %d, want 2", nw.Rounds())
	}
}

func TestParityString(t *testing.T) {
	for _, p := range []Parity{ParityUnknown, ParityEven, ParityOdd} {
		if p.String() == "" {
			t.Error("empty parity string")
		}
	}
}

// TestDeterministicOutcome runs the same multi-round mixed-chirality protocol
// twice and checks that observations are identical.
func TestDeterministicOutcome(t *testing.T) {
	collect := func() [][]int64 {
		nw, err := New(testConfig(ring.Perceptive, []bool{false, true, false, true, true}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFSM(nw, func(a *Agent) *Proto[[]int64] {
			var trace []int64
			first := ring.Clockwise
			if a.ID()%2 == 0 {
				first = ring.Anticlockwise
			}
			dir := func(i int) ring.Direction {
				if i%2 == 1 {
					return first.Opposite()
				}
				return first
			}
			record := func(_ int, obs Observation) { trace = append(trace, obs.Dist, obs.Coll) }
			return perRound(a, 6, dir, record, func() []int64 { return trace })
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := collect(), collect()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("trace length mismatch for agent %d", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic observation: agent %d element %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}

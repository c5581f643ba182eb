package engine

import (
	"errors"
	"reflect"
	"testing"

	"ringsym/internal/ring"
)

// flipTrace is what a flip-test machine records after the flip: the
// displacement right after it, then per-round dist() and displacement of
// single rounds, the YieldRoundSum total, and the stop round of a
// YieldRoundUntil sweep.
type flipTrace struct {
	Flipped   bool
	DispAfter int64
	Dists     []int64
	Disps     []int64
	Sum       int64
	SumDisp   int64
	StopRound int
	StopDisp  int64
}

// scriptDir is a fixed, ID-dependent direction choice for round i.
func scriptDir(id, i int) ring.Direction {
	if (id+i)%3 == 0 {
		return ring.Clockwise
	}
	return ring.Anticlockwise
}

// flipMachine plays three pre-flip rounds (reversing the direction of the
// agent with ID invertID, so that an agent of opposite chirality moves the
// same objective way), flips the agent with ID flipID, and then runs the same
// own-frame script on every agent: three single rounds, a four-round
// YieldRoundSum, and a constant-direction sweep that must stop, via
// YieldRoundUntil, exactly when the agent is back where it stood after the
// sweep's first two rounds.
func flipMachine(a *Agent, invertID, flipID int) *Proto[flipTrace] {
	return NewProto(func(done func(flipTrace) (Yield, Cont)) (Yield, Cont) {
		var tr flipTrace
		sweepDir := ring.Anticlockwise
		if a.ID() == 1 {
			sweepDir = ring.Clockwise
		}
		sweep := func() (Yield, Cont) {
			return a.YieldRoundN(sweepDir, 2), func(Resume) (Yield, Cont) {
				target := a.Displacement()
				return a.YieldRoundUntil(sweepDir, target, 50), func(in Resume) (Yield, Cont) {
					tr.StopRound = len(in.Obs)
					tr.StopDisp = a.Displacement()
					return done(tr)
				}
			}
		}
		sum := func() (Yield, Cont) {
			return a.YieldRoundSum(scriptDir(a.ID(), 7), 4), func(in Resume) (Yield, Cont) {
				tr.Sum = in.Sum
				tr.SumDisp = a.Displacement()
				return sweep()
			}
		}
		var post func(i int) (Yield, Cont)
		post = func(i int) (Yield, Cont) {
			if i == 3 {
				return sum()
			}
			return a.YieldRound(scriptDir(a.ID(), 10+i)), func(in Resume) (Yield, Cont) {
				tr.Dists = append(tr.Dists, in.Obs[0].Dist)
				tr.Disps = append(tr.Disps, a.Displacement())
				return post(i + 1)
			}
		}
		var pre func(i int) (Yield, Cont)
		pre = func(i int) (Yield, Cont) {
			if i == 3 {
				if a.ID() == flipID {
					a.Flip()
				}
				tr.Flipped = a.Flipped()
				tr.DispAfter = a.Displacement()
				return post(0)
			}
			dir := scriptDir(a.ID(), i)
			if a.ID() == invertID {
				dir = dir.Opposite()
			}
			return a.YieldRound(dir), func(Resume) (Yield, Cont) { return pre(i + 1) }
		}
		return pre(0)
	})
}

// TestFlipMatchesOppositeChirality checks that an agent that calls Flip
// mid-run sees, from then on, exactly what an agent of the opposite hardware
// chirality sees after the same objective movement: dist(), Displacement,
// the YieldRoundSum total and the YieldRoundUntil stop round.
func TestFlipMatchesOppositeChirality(t *testing.T) {
	const id = 7 // ring index 0 in testConfig
	chir := []bool{true, false, true, true, false}
	opposite := append([]bool(nil), chir...)
	opposite[0] = !opposite[0]

	flipped, err := New(testConfig(ring.Basic, chir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFSM(flipped, func(a *Agent) *Proto[flipTrace] { return flipMachine(a, -1, id) })
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(testConfig(ring.Basic, opposite))
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunFSM(other, func(a *Agent) *Proto[flipTrace] { return flipMachine(a, id, -1) })
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds %d, want %d", got.Rounds, want.Rounds)
	}
	for i := range got.Outputs {
		g, w := got.Outputs[i], want.Outputs[i]
		if g.Flipped != (i == 0) || w.Flipped {
			t.Errorf("agent %d: Flipped %v (opposite-chirality run %v)", i, g.Flipped, w.Flipped)
		}
		g.Flipped, w.Flipped = false, false
		if !reflect.DeepEqual(g, w) {
			t.Errorf("agent %d: flipped run %+v, opposite-chirality run %+v", i, g, w)
		}
	}
	// The sweep has rotation index 4 for n = 5, so it returns after n rounds;
	// a mistranslated target would run on to the batch length.
	n := flipped.N()
	if s := got.Outputs[0].StopRound; s != n {
		t.Errorf("flipped agent's sweep stopped after %d rounds, want %d", s, n)
	}
	if got.Outputs[0].DispAfter == 0 {
		t.Error("pre-flip displacement is zero; the re-expression is not exercised")
	}
}

// flipProbe reports whether the agent starts unflipped, then plays a fixed
// two-batch probe and returns its observations.
func flipProbe(a *Agent) *Proto[[]Observation] {
	return NewProto(func(done func([]Observation) (Yield, Cont)) (Yield, Cont) {
		if a.Flipped() {
			return Abort(errFlippedAtStart)
		}
		return a.YieldRound(scriptDir(a.ID(), 0)), func(in Resume) (Yield, Cont) {
			out := []Observation{in.Obs[0]}
			return a.YieldRoundN(scriptDir(a.ID(), 1), 3), func(in Resume) (Yield, Cont) {
				return done(append(out, in.Obs...))
			}
		}
	})
}

var errFlippedAtStart = errors.New("agent starts the run flipped")

// flipAndRestore flips every odd-ID agent and then plays a paired round, which
// leaves every agent on its starting slot.
func flipAndRestore(a *Agent) *Proto[struct{}] {
	return NewProto(func(done func(struct{}) (Yield, Cont)) (Yield, Cont) {
		if a.ID()%2 == 1 {
			a.Flip()
		}
		dir := scriptDir(a.ID(), 5)
		return a.YieldRound(dir), func(Resume) (Yield, Cont) {
			return a.YieldRound(dir.Opposite()), func(Resume) (Yield, Cont) {
				return done(struct{}{})
			}
		}
	})
}

// TestFlipDoesNotOutliveRun checks that orientation is per-run state: a
// second run on the same network, and a run after Reset, both start
// unflipped and observe exactly what a fresh network observes.
func TestFlipDoesNotOutliveRun(t *testing.T) {
	cfg := testConfig(ring.Perceptive, []bool{true, false, false, true, true})
	probe := func(nw *Network) []Observation {
		t.Helper()
		res, err := RunFSM(nw, flipProbe)
		if err != nil {
			t.Fatal(err)
		}
		var all []Observation
		for _, o := range res.Outputs {
			all = append(all, o...)
		}
		return all
	}
	fresh := func(cfg Config) []Observation {
		t.Helper()
		nw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return probe(nw)
	}

	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFSM(nw, flipAndRestore); err != nil {
		t.Fatal(err)
	}
	if got, want := probe(nw), fresh(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("second run after a flip: %v, want %v", got, want)
	}

	if _, err := RunFSM(nw, flipAndRestore); err != nil {
		t.Fatal(err)
	}
	next := testConfig(ring.Basic, []bool{false, true, true, false, true})
	if err := nw.Reset(next); err != nil {
		t.Fatal(err)
	}
	if got, want := probe(nw), fresh(next); !reflect.DeepEqual(got, want) {
		t.Errorf("run after Reset: %v, want %v", got, want)
	}
}

// TestFlippedAgentDefaultsToHardwareClockwise checks that an agent that
// flipped and then terminated keeps moving in its hardware clockwise
// direction: the other agents observe the same rounds whether or not it
// flipped.
func TestFlippedAgentDefaultsToHardwareClockwise(t *testing.T) {
	const early = 7
	run := func(flip bool) [][]Observation {
		t.Helper()
		nw, err := New(testConfig(ring.Basic, []bool{false, true, true, false, true}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFSM(nw, func(a *Agent) *Proto[[]Observation] {
			return NewProto(func(done func([]Observation) (Yield, Cont)) (Yield, Cont) {
				if a.ID() == early {
					dir := ring.Clockwise
					if flip {
						// Same objective movement as the unflipped agent.
						a.Flip()
						dir = ring.Anticlockwise
					}
					return a.YieldRound(dir), func(Resume) (Yield, Cont) { return done(nil) }
				}
				var out []Observation
				var step func(i int) (Yield, Cont)
				step = func(i int) (Yield, Cont) {
					if i == 5 {
						return done(out)
					}
					return a.YieldRound(scriptDir(a.ID(), i)), func(in Resume) (Yield, Cont) {
						out = append(out, in.Obs[0])
						return step(i + 1)
					}
				}
				return step(0)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Errorf("with a flipped early finisher the others observe %v, want %v", got, want)
	}
}

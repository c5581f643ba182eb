// Package core implements the paper's coordination algorithms: rotation-index
// classification (Lemma 2), direction agreement (Algorithm 1,
// Proposition 17), leader election (Algorithm 2, Lemma 13), the nontrivial
// move problem (Lemma 10, Corollary 18, Theorem 27) and emptiness testing
// (Lemma 12), together with the reductions of Theorem 7.
//
// All algorithms are written from a single agent's point of view: they take
// the *engine.Agent, whose directions and observations are expressed in its
// current software sense of direction (reversed by Agent.Flip, which direction
// agreement uses), and are resumable state machines in continuation-passing
// style, one …Step function per algorithm.  A step returns the agent's next
// round request (a.YieldRound and friends) together with the continuation to
// resume with, and passes its result to its continuation k; engine.NewProto
// turns a step into a machine the engine's scheduler runs.  Every agent of
// the network runs the same function; global consistency comes from the
// observations being shared (rotation indices are global) exactly as argued
// in the paper.  Validation
// failures abort the machine through the yield and run failures arrive as
// Resume errors, both intercepted by engine.Proto, so steps carry no error
// plumbing.
//
// Observation-slice arguments passed to continuations alias the agent's resume
// buffer: consume (or copy) them before the next yield.
package core

import (
	"errors"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Errors returned by the coordination algorithms.
var (
	// ErrNoNontrivialMove is returned when a search for a nontrivial move
	// exhausted its candidate schedule (for the pseudo-random schedules this
	// has negligible probability; it indicates a mis-sized family otherwise).
	ErrNoNontrivialMove = errors.New("core: could not find a nontrivial move")
	// ErrNeedPerceptive is returned when an algorithm requires the
	// perceptive model.
	ErrNeedPerceptive = errors.New("core: algorithm requires the perceptive model")
	// ErrNeedLazyOrOdd is returned when location discovery is requested in a
	// setting where it is impossible (Lemma 5).
	ErrNeedLazyOrOdd = errors.New("core: not solvable in the basic model with even n (Lemma 5)")
)

// RoundPairStep executes SINGLEROUND followed by REVERSEDROUND for the given
// direction, so that afterwards every agent is back at the position it
// occupied before the pair (provided every agent uses RoundPairStep with its
// own direction); k receives the observation of the first round.
func RoundPairStep(a *engine.Agent, dir ring.Direction, k func(engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return a.YieldRound(dir), func(in engine.Resume) (engine.Yield, engine.Cont) {
		obs := in.Obs[0]
		return a.YieldRound(dir.Opposite()), func(engine.Resume) (engine.Yield, engine.Cont) {
			return k(obs)
		}
	}
}

// RotationClass classifies the rotation index of a direction assignment as
// seen from an agent's current sense of direction (Lemma 2).
type RotationClass int8

const (
	// RotUnknown means the classification has not been performed.
	RotUnknown RotationClass = iota
	// RotZero means the rotation index is 0.
	RotZero
	// RotHalf means the rotation index is n/2.
	RotHalf
	// RotBelowHalf means the rotation index is strictly between 0 and n/2 in
	// the agent's frame.
	RotBelowHalf
	// RotAboveHalf means the rotation index is strictly between n/2 and n in
	// the agent's frame.
	RotAboveHalf
)

// String implements fmt.Stringer.
func (c RotationClass) String() string {
	switch c {
	case RotZero:
		return "zero"
	case RotHalf:
		return "half"
	case RotBelowHalf:
		return "below-half"
	case RotAboveHalf:
		return "above-half"
	default:
		return "unknown"
	}
}

// Nontrivial reports whether the classified round is a nontrivial move
// (rotation index not in {0, n/2}).  This is consistent across agents even
// though RotBelowHalf/RotAboveHalf themselves are frame-relative.
func (c RotationClass) Nontrivial() bool { return c == RotBelowHalf || c == RotAboveHalf }

// ClassifyRotationStep implements Lemma 2: it executes the assignment in
// which this agent moves in direction dir twice (all agents must call it with
// their respective directions) and passes the classification of the
// assignment's rotation index to k.  When restore is true two reversed rounds
// follow, so every agent ends at the position it started from.  Cost: 2
// rounds (4 with restore).
func ClassifyRotationStep(a *engine.Agent, dir ring.Direction, restore bool, k func(RotationClass) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return a.YieldRoundN(dir, 2), func(in engine.Resume) (engine.Yield, engine.Cont) {
		cls := classOf(a.FullCircle(), in.Obs[0], in.Obs[1])
		if !restore {
			return k(cls)
		}
		// The reversed rounds' observations are discarded, so the aggregate
		// form suffices.
		return a.YieldRoundSum(dir.Opposite(), 2), func(engine.Resume) (engine.Yield, engine.Cont) {
			return k(cls)
		}
	}
}

// classOf is Lemma 2's classification from the two observations of the double
// execution.
func classOf(full int64, obs1, obs2 engine.Observation) RotationClass {
	switch sum := obs1.Dist + obs2.Dist; {
	case obs1.Dist == 0:
		return RotZero
	case sum == full:
		return RotHalf
	case sum > full:
		return RotAboveHalf
	default:
		return RotBelowHalf
	}
}

// IDBit returns the i-th bit (1-based, least significant first) of id.
func IDBit(id, i int) int { return (id >> (i - 1)) & 1 }

// idBits returns the number of bit positions needed for identifiers bounded
// by the agent's IDBound.
func idBits(a *engine.Agent) int {
	b := 0
	for v := a.IDBound(); v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

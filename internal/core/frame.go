// Package core implements the paper's coordination algorithms: rotation-index
// classification (Lemma 2), direction agreement (Algorithm 1,
// Proposition 17), leader election (Algorithm 2, Lemma 13), the nontrivial
// move problem (Lemma 10, Corollary 18, Theorem 27) and emptiness testing
// (Lemma 12), together with the reductions of Theorem 7.
//
// All algorithms are written from a single agent's point of view: they take a
// *Frame (the agent plus its current software sense of direction) and are
// resumable state machines in continuation-passing style, one …Step function
// per algorithm.  A step returns the agent's next round request
// (engine.Yield) together with the continuation to resume with, and passes
// its result to its continuation k; engine.NewProto turns a step into a
// machine the engine's scheduler runs.  Every agent of the network runs the
// same function; global consistency comes from the observations being shared
// (rotation indices are global) exactly as argued in the paper.  Validation
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

// Frame wraps an agent together with its current software sense of
// direction.  Protocols express all directions in frame coordinates;
// DirectionAgreementStep flips frames so that afterwards every agent's frame
// refers to the same objective direction.
type Frame struct {
	agent   *engine.Agent
	flipped bool
	full    int64

	// schedScratch holds frame-to-agent translations of RoundScheduleStep
	// submissions; reused across calls.
	schedScratch []ring.Direction
}

// NewFrame wraps the agent with an unflipped frame (the agent's own private
// sense of direction).
func NewFrame(a *engine.Agent) *Frame {
	return &Frame{agent: a, full: a.FullCircle()}
}

// Agent returns the underlying agent handle.
func (f *Frame) Agent() *engine.Agent { return f.agent }

// ID returns the agent's identifier.
func (f *Frame) ID() int { return f.agent.ID() }

// IDBound returns N.
func (f *Frame) IDBound() int { return f.agent.IDBound() }

// FullCircle returns the circumference in observation units (half-ticks).
func (f *Frame) FullCircle() int64 { return f.full }

// Flipped reports whether the frame currently reverses the agent's own sense
// of direction.
func (f *Frame) Flipped() bool { return f.flipped }

// Flip reverses the frame's sense of direction.
func (f *Frame) Flip() { f.flipped = !f.flipped }

// RoundsUsed returns the number of rounds the agent has participated in.
func (f *Frame) RoundsUsed() int { return f.agent.RoundsUsed() }

// Displacement returns the cumulative displacement of the agent since the
// start of the run, measured clockwise in the frame's current orientation
// (half-ticks, modulo the full circle).
func (f *Frame) Displacement() int64 {
	d := f.agent.Displacement()
	if f.flipped && d != 0 {
		d = f.full - d
	}
	return d
}

// translate maps a frame direction to the agent's own direction.
func (f *Frame) translate(dir ring.Direction) ring.Direction {
	if f.flipped {
		return dir.Opposite()
	}
	return dir
}

// flipObs maps one observation into the frame's orientation.
func (f *Frame) flipObs(obs engine.Observation) engine.Observation {
	if f.flipped && obs.Dist != 0 {
		obs.Dist = f.full - obs.Dist
	}
	return obs
}

// retranslate maps an observation trace into the frame's orientation,
// in place.
func (f *Frame) retranslate(trace []engine.Observation) []engine.Observation {
	if f.flipped {
		for i := range trace {
			if trace[i].Dist != 0 {
				trace[i].Dist = f.full - trace[i].Dist
			}
		}
	}
	return trace
}

// RoundStep executes one round in which the agent moves in direction dir
// (frame coordinates); k receives the observation with dist() measured in the
// frame's clockwise direction.
func (f *Frame) RoundStep(dir ring.Direction, k func(engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.agent.YieldRound(f.translate(dir)), func(in engine.Resume) (engine.Yield, engine.Cont) {
		return k(f.flipObs(in.Obs[0]))
	}
}

// RoundNStep executes n consecutive rounds in which the agent moves in
// direction dir (frame coordinates), submitted as a single leap batch; k
// receives the per-round observations in the frame's orientation — exactly
// what n sequential RoundStep calls would have observed, without n crossings.
func (f *Frame) RoundNStep(dir ring.Direction, n int, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.agent.YieldRoundN(f.translate(dir), n), func(in engine.Resume) (engine.Yield, engine.Cont) {
		return k(f.retranslate(in.Obs))
	}
}

// RoundNSumStep executes n rounds in direction dir (frame coordinates); k
// receives only the cumulative displacement of the stretch, measured in the
// frame's clockwise direction modulo the full circle.  Use it for stretches
// whose per-round observations are discarded (restores, undo phases): the
// runtime then skips materialising the trace entirely.
func (f *Frame) RoundNSumStep(dir ring.Direction, n int, k func(int64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.agent.YieldRoundSum(f.translate(dir), n), func(in engine.Resume) (engine.Yield, engine.Cont) {
		sum := in.Sum
		if f.flipped && sum != 0 {
			sum = f.full - sum
		}
		return k(sum)
	}
}

// RoundUntilStep executes up to n rounds in direction dir (frame
// coordinates), stopping after the first round at which the frame
// displacement (the value Displacement reports) equals target.  The stop is
// solved in closed form by the runtime, so the batch consumes exactly as many
// rounds as the equivalent per-round loop — no overshoot.  k receives the
// trace of the executed rounds.  Like engine.Agent.YieldRoundUntil it
// snapshots the agent's displacement, so it must be invoked at yield time,
// not built ahead.
func (f *Frame) RoundUntilStep(dir ring.Direction, target int64, n int, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	agentTarget := target
	if f.flipped && target != 0 {
		agentTarget = f.full - target
	}
	return f.agent.YieldRoundUntil(f.translate(dir), agentTarget, n), func(in engine.Resume) (engine.Yield, engine.Cont) {
		return k(f.retranslate(in.Obs))
	}
}

// RoundScheduleStep executes a whole per-round direction schedule (frame
// coordinates) as one batch; k receives the per-round observations.  The
// schedule is translated into the agent's frame in a scratch buffer, so the
// caller's slice is never modified.
func (f *Frame) RoundScheduleStep(dirs []ring.Direction, k func([]engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if cap(f.schedScratch) < len(dirs) {
		f.schedScratch = make([]ring.Direction, len(dirs))
	}
	sched := f.schedScratch[:len(dirs)]
	for i, d := range dirs {
		sched[i] = f.translate(d)
	}
	return f.agent.YieldSchedule(sched), func(in engine.Resume) (engine.Yield, engine.Cont) {
		return k(f.retranslate(in.Obs))
	}
}

// RoundPairStep executes SINGLEROUND followed by REVERSEDROUND for the given
// direction, so that afterwards every agent is back at the position it
// occupied before the pair (provided every agent uses RoundPairStep with its
// own direction); k receives the observation of the first round.
func (f *Frame) RoundPairStep(dir ring.Direction, k func(engine.Observation) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.RoundStep(dir, func(obs engine.Observation) (engine.Yield, engine.Cont) {
		return f.RoundStep(dir.Opposite(), func(engine.Observation) (engine.Yield, engine.Cont) {
			return k(obs)
		})
	})
}

// RotationClass classifies the rotation index of a direction assignment as
// seen from an agent's frame (Lemma 2).
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
func (f *Frame) ClassifyRotationStep(dir ring.Direction, restore bool, k func(RotationClass) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return f.RoundNStep(dir, 2, func(trace []engine.Observation) (engine.Yield, engine.Cont) {
		cls := classOf(f.full, trace[0], trace[1])
		if !restore {
			return k(cls)
		}
		// The reversed rounds' observations are discarded, so the aggregate
		// form suffices.
		return f.RoundNSumStep(dir.Opposite(), 2, func(int64) (engine.Yield, engine.Cont) {
			return k(cls)
		})
	})
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
func (f *Frame) idBits() int {
	b := 0
	for v := f.IDBound(); v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// DirectionAgreementStep implements Algorithm 1 (DirAgr).  Precondition: nmDir
// is this agent's direction, in its current sense of direction, in an
// assignment known to be a nontrivial move.  The assignment is executed twice;
// agents whose two-round displacement exceeds a full circle flip their sense
// of direction (Agent.Flip).  Afterwards every agent's clockwise refers to the
// same objective clockwise direction.
//
// k receives nmDir re-expressed in the (possibly flipped) sense of direction
// so that it still denotes the same objective direction.  Cost: 2 rounds.
func DirectionAgreementStep(a *engine.Agent, nmDir ring.Direction, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return a.YieldRoundN(nmDir, 2), func(in engine.Resume) (engine.Yield, engine.Cont) {
		if in.Obs[0].Dist+in.Obs[1].Dist > a.FullCircle() {
			a.Flip()
			return k(nmDir.Opposite())
		}
		return k(nmDir)
	}
}

// DirectionAgreementOddStep implements Proposition 17: for odd n the direction
// agreement problem is solved in O(1) rounds from scratch.  All agents move
// in their own clockwise direction; if the rotation index is zero every agent
// already points the same way, otherwise the round was a nontrivial move
// (odd n) and Algorithm 1 finishes the job.  Cost: at most 3 rounds.
func DirectionAgreementOddStep(a *engine.Agent, k func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return a.YieldRound(ring.Clockwise), func(in engine.Resume) (engine.Yield, engine.Cont) {
		dist1 := in.Obs[0].Dist
		if dist1 == 0 {
			return k()
		}
		return a.YieldRound(ring.Clockwise), func(in engine.Resume) (engine.Yield, engine.Cont) {
			if dist1+in.Obs[0].Dist > a.FullCircle() {
				a.Flip()
			}
			return k()
		}
	}
}

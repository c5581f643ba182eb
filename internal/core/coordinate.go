package core

import (
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Options configures the high-level coordination pipeline.
type Options struct {
	// CommonSense promises that all agents already share a sense of
	// direction (the Table II setting); the caller is responsible for the
	// promise being true of the underlying network.
	CommonSense bool
	// Seed drives the pseudo-random schedules used for even n.
	Seed int64
}

// Coordination is the outcome of solving the three coordination problems.
type Coordination struct {
	// IsLeader reports whether this agent was elected the unique leader.
	IsLeader bool
	// NontrivialDir is this agent's direction, in the agreed sense of
	// direction (the agent's orientation after the pipeline), in an
	// assignment known to be a nontrivial move.
	NontrivialDir ring.Direction
	// RoundsNontrivial, RoundsAgreement and RoundsLeader record the number
	// of rounds spent in each stage (identical at every agent).
	RoundsNontrivial int
	RoundsAgreement  int
	RoundsLeader     int
}

// CoordinateMachine builds the coordination pipeline (CoordinateStep) as a
// resumable machine for the engine's scheduler.
func CoordinateMachine(a *engine.Agent, opts Options) *engine.Proto[*Coordination] {
	return engine.NewProto(func(done func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return CoordinateStep(a, opts, done)
	})
}

// CoordinateStep solves nontrivial move, direction agreement and leader
// election (Theorem 7) for the basic and lazy models, and for the perceptive
// model via the basic-model algorithms (the faster perceptive pipeline lives in
// internal/perceptive).  The route depends on the setting:
//
//   - common sense of direction promised: leader election by binary search
//     with emptiness testing (Lemma 13), then a nontrivial move from the
//     leader (Lemma 10);
//   - odd n: nontrivial move from the identifier bits (Corollary 18), then
//     Algorithm 1 and Algorithm 2;
//   - even (or unknown) n: the pseudo-random schedule substituting for
//     Theorem 27, then Algorithm 1 and Algorithm 2.
func CoordinateStep(a *engine.Agent, opts Options, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if opts.CommonSense {
		return coordinateCommonSenseStep(a, k)
	}

	start := a.RoundsUsed()
	nmStep := NontrivialMoveOddStep
	if a.NParity() != engine.ParityOdd {
		nmStep = func(a *engine.Agent, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return NontrivialMoveEvenStep(a, opts.Seed, k)
		}
	}
	return nmStep(a, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
		afterNM := a.RoundsUsed()
		return DirectionAgreementStep(a, nmDir, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			afterDA := a.RoundsUsed()
			return LeaderElectWithNMStep(a, nmDir, func(isLeader bool) (engine.Yield, engine.Cont) {
				return k(&Coordination{
					IsLeader:         isLeader,
					NontrivialDir:    nmDir,
					RoundsNontrivial: afterNM - start,
					RoundsAgreement:  afterDA - afterNM,
					RoundsLeader:     a.RoundsUsed() - afterDA,
				})
			})
		})
	})
}

// coordinateCommonSenseStep is the Table II pipeline: the senses of direction
// already agree, so the leader is elected by binary search (Lemma 13) and a
// nontrivial move follows from the leader (Lemma 10).
func coordinateCommonSenseStep(a *engine.Agent, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	start := a.RoundsUsed()
	return LeaderElectCommonSenseStep(a, func(isLeader bool) (engine.Yield, engine.Cont) {
		afterLeader := a.RoundsUsed()
		return NontrivialMoveFromLeaderStep(a, isLeader, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			return k(&Coordination{
				IsLeader:         isLeader,
				NontrivialDir:    nmDir,
				RoundsLeader:     afterLeader - start,
				RoundsNontrivial: a.RoundsUsed() - afterLeader,
			})
		})
	})
}

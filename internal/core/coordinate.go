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
	// Frame is the agent's frame after direction agreement; all agents'
	// frames refer to the same objective clockwise direction.
	Frame *Frame
	// IsLeader reports whether this agent was elected the unique leader.
	IsLeader bool
	// NontrivialDir is this agent's direction, in the agreed frame, in an
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
	f := NewFrame(a)
	if opts.CommonSense {
		return coordinateCommonSenseStep(f, k)
	}

	start := f.RoundsUsed()
	nmStep := NontrivialMoveOddStep
	if a.NParity() != engine.ParityOdd {
		nmStep = func(f *Frame, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
			return NontrivialMoveEvenStep(f, opts.Seed, k)
		}
	}
	return nmStep(f, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
		afterNM := f.RoundsUsed()
		return DirectionAgreementStep(f, nmDir, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			afterDA := f.RoundsUsed()
			return LeaderElectWithNMStep(f, nmDir, func(isLeader bool) (engine.Yield, engine.Cont) {
				return k(&Coordination{
					Frame:            f,
					IsLeader:         isLeader,
					NontrivialDir:    nmDir,
					RoundsNontrivial: afterNM - start,
					RoundsAgreement:  afterDA - afterNM,
					RoundsLeader:     f.RoundsUsed() - afterDA,
				})
			})
		})
	})
}

// coordinateCommonSenseStep is the Table II pipeline: the frames already
// agree, so the leader is elected by binary search (Lemma 13) and a
// nontrivial move follows from the leader (Lemma 10).
func coordinateCommonSenseStep(f *Frame, k func(*Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	start := f.RoundsUsed()
	return LeaderElectCommonSenseStep(f, func(isLeader bool) (engine.Yield, engine.Cont) {
		afterLeader := f.RoundsUsed()
		return NontrivialMoveFromLeaderStep(f, isLeader, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			return k(&Coordination{
				Frame:            f,
				IsLeader:         isLeader,
				NontrivialDir:    nmDir,
				RoundsLeader:     afterLeader - start,
				RoundsNontrivial: f.RoundsUsed() - afterLeader,
			})
		})
	})
}

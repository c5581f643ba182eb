// Package perceptive implements the Section V algorithms of the paper, which
// exploit the coll() observable of the perceptive model: the sub-linear
// nontrivial move algorithm NMoveS (Algorithm 4), ring-distance discovery
// RingDist (Algorithm 5) and the position-discovery schedule Distances
// (Algorithm 6), culminating in Theorem 42's n/2 + o(n) location discovery.
package perceptive

import (
	"errors"
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// Errors returned by the package.
var (
	ErrNeedPerceptive = errors.New("perceptive: algorithm requires the perceptive model")
	ErrExhausted      = errors.New("perceptive: schedule exhausted without success")
	ErrProtocol       = errors.New("perceptive: protocol invariant violated")
)

// NMoveSStep implements Algorithm 4: the nontrivial move problem in
// O(√n·log N) rounds without a common sense of direction.
//
// If the all-clockwise round is already nontrivial we are done.  Otherwise
// its rotation index r0 lies in {0, n/2}, and any assignment that differs
// from it in exactly one agent has rotation index r0 ± 2 ∉ {0, n/2} for
// n > 4 (the argument of Lemma 10).  The algorithm therefore thins the agents
// into local leaders over exponentially growing distances 2^k — pairwise more
// than 2^k apart, hence fewer than n/2^k of them — and executes an
// (N, 2^k)-selective family on the leaders; as soon as a set isolates exactly
// one leader, flipping exactly that leader yields a nontrivial move, which
// every agent recognises with Lemma 2.
//
// k receives this agent's direction, in its current sense of direction, in a
// round known by every agent to be a nontrivial move.
func NMoveSStep(a *engine.Agent, seed int64, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if !a.Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	return core.ClassifyRotationStep(a, ring.Clockwise, true, func(cls core.RotationClass) (engine.Yield, engine.Cont) {
		if cls.Nontrivial() {
			return k(ring.Clockwise)
		}
		return rcomm.EstablishStep(a, func(link *rcomm.Link) (engine.Yield, engine.Cont) {
			idBits := comb.Bits(a.IDBound())
			isLeader := true // L_0 contains every agent

			var level func(lvl int) (engine.Yield, engine.Cont)
			level = func(lvl int) (engine.Yield, engine.Cont) {
				d := 1 << lvl
				if d > 2*a.IDBound() {
					return engine.Abort(fmt.Errorf("%w: local-leader hierarchy exceeded the identifier bound", ErrExhausted))
				}
				// Thin the leaders: a level-(k-1) leader survives to level k iff
				// its identifier is maximal among level-(k-1) leaders within ring
				// distance 2^k.
				return link.AggregateMaxStep(isLeader, uint64(a.ID()), idBits, d, func(max uint64, found bool) (engine.Yield, engine.Cont) {
					if isLeader && found && int(max) > a.ID() {
						isLeader = false
					}
					// Execute the (N, 2^k)-selective family on the surviving
					// leaders: leaders contained in the current set flip to
					// anticlockwise, every other agent stays clockwise.
					fam, err := comb.NewRandomSelective(a.IDBound(), d, seed^int64(lvl)*0x9e3779b9, 0)
					if err != nil {
						return engine.Abort(err)
					}
					var try func(i int) (engine.Yield, engine.Cont)
					try = func(i int) (engine.Yield, engine.Cont) {
						if i == fam.Len() {
							return level(lvl + 1)
						}
						dir := ring.Clockwise
						if isLeader && fam.Contains(i, a.ID()) {
							dir = ring.Anticlockwise
						}
						return core.ClassifyRotationStep(a, dir, true, func(cls core.RotationClass) (engine.Yield, engine.Cont) {
							if cls.Nontrivial() {
								return k(dir)
							}
							return try(i + 1)
						})
					}
					return try(0)
				})
			}
			return level(0)
		})
	})
}

// Options configures the perceptive coordination and discovery pipelines.
type Options struct {
	// Seed drives the pseudo-random selective families.
	Seed int64
}

// CoordinateMachine builds the perceptive coordination pipeline
// (CoordinateStep) as a resumable machine for the engine's scheduler.
func CoordinateMachine(a *engine.Agent, opts Options) *engine.Proto[*core.Coordination] {
	return engine.NewProto(func(done func(*core.Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		return CoordinateStep(a, opts, done)
	})
}

// CoordinateStep solves nontrivial move, direction agreement and leader
// election in the perceptive model in O(√n·log N) rounds (Table I, last row),
// by composing NMoveS with Algorithm 1 and Algorithm 2.
func CoordinateStep(a *engine.Agent, opts Options, k func(*core.Coordination) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	start := a.RoundsUsed()
	return NMoveSStep(a, opts.Seed, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
		afterNM := a.RoundsUsed()
		return core.DirectionAgreementStep(a, nmDir, func(nmDir ring.Direction) (engine.Yield, engine.Cont) {
			afterDA := a.RoundsUsed()
			return core.LeaderElectWithNMStep(a, nmDir, func(isLeader bool) (engine.Yield, engine.Cont) {
				return k(&core.Coordination{
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

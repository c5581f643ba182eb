package core

import (
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// NontrivialMoveOddStep solves the nontrivial move problem when n is odd
// (Corollary 18).  For odd n a round is nontrivial as soon as both objective
// directions occur, so the all-clockwise round works unless every agent is
// oriented the same way, in which case the agents differ on some identifier
// bit and the corresponding bit round breaks the tie.  Cost: at most
// 1 + ⌈log2 N⌉ rounds.
//
// k receives this agent's direction, in its current sense of direction, in a
// round known by every agent to be a nontrivial move.
func NontrivialMoveOddStep(a *engine.Agent, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return a.YieldRound(ring.Clockwise), func(in engine.Resume) (engine.Yield, engine.Cont) {
		if in.Obs[0].Dist != 0 {
			return k(ring.Clockwise)
		}
		var bit func(i int) (engine.Yield, engine.Cont)
		bit = func(i int) (engine.Yield, engine.Cont) {
			if i > idBits(a) {
				return engine.Abort(fmt.Errorf("%w: odd-n bit schedule exhausted", ErrNoNontrivialMove))
			}
			dir := ring.Anticlockwise
			if IDBit(a.ID(), i) == 1 {
				dir = ring.Clockwise
			}
			return a.YieldRound(dir), func(in engine.Resume) (engine.Yield, engine.Cont) {
				if in.Obs[0].Dist != 0 {
					return k(dir)
				}
				return bit(i + 1)
			}
		}
		return bit(1)
	}
}

// NontrivialMoveFromLeaderStep solves the nontrivial move problem in O(1)
// rounds once a unique leader exists (Lemma 10).  The two candidate assignments
// differ only in the leader's direction, so their rotation indices differ by 2
// and cannot both lie in {0, n/2} when n > 4.  Cost: at most 4 rounds.
func NontrivialMoveFromLeaderStep(a *engine.Agent, isLeader bool, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	return ClassifyRotationStep(a, ring.Clockwise, false, func(cls RotationClass) (engine.Yield, engine.Cont) {
		if cls.Nontrivial() {
			return k(ring.Clockwise)
		}
		dir := ring.Clockwise
		if isLeader {
			dir = ring.Anticlockwise
		}
		return ClassifyRotationStep(a, dir, false, func(cls RotationClass) (engine.Yield, engine.Cont) {
			if cls.Nontrivial() {
				return k(dir)
			}
			return engine.Abort(fmt.Errorf("%w: leader-based candidates both trivial (is the leader unique and n > 4?)", ErrNoNontrivialMove))
		})
	})
}

// NontrivialMoveSearchStep executes the direction schedule defined by the set
// family (agents whose identifier is in the i-th set move clockwise in their
// current sense of direction, all others anticlockwise) until a round with a nontrivial rotation
// index appears.  With weak set, a weakly nontrivial move (rotation index
// different from 0, Proposition 22) is accepted and each candidate costs one
// round; otherwise each candidate is classified with Lemma 2 and costs two.
//
// k receives this agent's direction in the successful round and the index of
// the successful set.
func NontrivialMoveSearchStep(a *engine.Agent, fam comb.SetFamily, weak bool, k func(ring.Direction, int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	var try func(i int) (engine.Yield, engine.Cont)
	try = func(i int) (engine.Yield, engine.Cont) {
		if i >= fam.Len() {
			return engine.Abort(fmt.Errorf("%w: schedule of %d sets exhausted", ErrNoNontrivialMove, fam.Len()))
		}
		dir := ring.Anticlockwise
		if fam.Contains(i, a.ID()) {
			dir = ring.Clockwise
		}
		if weak {
			return a.YieldRound(dir), func(in engine.Resume) (engine.Yield, engine.Cont) {
				if in.Obs[0].Dist != 0 {
					return k(dir, i)
				}
				return try(i + 1)
			}
		}
		return ClassifyRotationStep(a, dir, false, func(cls RotationClass) (engine.Yield, engine.Cont) {
			if cls.Nontrivial() {
				return k(dir, i)
			}
			return try(i + 1)
		})
	}
	return try(0)
}

// defaultScheduleLength bounds the pseudo-random schedule used when n is
// unknown: Theorem 27 guarantees a nontrivial move within
// O(n·log(N/n)/log n) = O(N) rounds with overwhelming probability.
func defaultScheduleLength(idBound int) int {
	l := 16*idBound + 512
	return l
}

// NontrivialMoveEvenStep solves the (strong) nontrivial move problem in the
// basic or lazy model for even n using the seeded pseudo-random schedule that
// substitutes for the non-constructive sequence of Theorem 27.  The expected
// number of rounds matches Θ(n·log(N/n)/log n) up to constants; Corollary 26
// shows this is optimal up to the log n factor.
func NontrivialMoveEvenStep(a *engine.Agent, seed int64, k func(ring.Direction) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fam, err := comb.NewRandomDistinguisher(a.IDBound(), defaultScheduleLength(a.IDBound()), seed)
	if err != nil {
		return engine.Abort(err)
	}
	return NontrivialMoveSearchStep(a, fam, false, func(dir ring.Direction, _ int) (engine.Yield, engine.Cont) {
		return k(dir)
	})
}

// WeakNontrivialMoveEvenStep is the weak variant (rotation index merely
// nonzero), the object related to (N, n/2)-distinguishers by Proposition 22.
// k also receives the index of the successful round so that experiments can
// compare the empirical count against the distinguisher bounds of Section IV.
func WeakNontrivialMoveEvenStep(a *engine.Agent, seed int64, k func(ring.Direction, int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	fam, err := comb.NewRandomDistinguisher(a.IDBound(), defaultScheduleLength(a.IDBound()), seed)
	if err != nil {
		return engine.Abort(err)
	}
	return NontrivialMoveSearchStep(a, fam, true, k)
}

package core

import (
	"fmt"

	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// LeaderElectWithNMStep implements Algorithm 2 (LeaderWithNMove).
//
// Preconditions: every agent's clockwise refers to the same objective
// clockwise direction (run DirectionAgreementStep first) and nmDir is this
// agent's direction, in that common sense of direction, in an assignment
// known to be a nontrivial move.  The candidate set starts as the agents that move clockwise in the
// nontrivial move (its rotation index is nonzero) and is halved along
// identifier bits, keeping whichever half still has a nonzero rotation index
// (Lemma 3(c) guarantees one of them does).  After ⌈log2 N⌉ rounds exactly
// one agent remains.  Cost: ⌈log2 N⌉ rounds.
func LeaderElectWithNMStep(a *engine.Agent, nmDir ring.Direction, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	var bit func(i int, inX bool) (engine.Yield, engine.Cont)
	bit = func(i int, inX bool) (engine.Yield, engine.Cont) {
		if i > idBits(a) {
			return k(inX)
		}
		inX0 := inX && IDBit(a.ID(), i) == 0
		dir := ring.Anticlockwise
		if inX0 {
			dir = ring.Clockwise
		}
		return a.YieldRound(dir), func(in engine.Resume) (engine.Yield, engine.Cont) {
			if in.Obs[0].Dist != 0 {
				return bit(i+1, inX0)
			}
			return bit(i+1, inX && !inX0)
		}
	}
	return bit(1, nmDir == ring.Clockwise)
}

// EmptinessTestStep implements Lemma 12.  All agents know the query set B
// implicitly: each caller passes whether its own identifier belongs to B.
// Precondition: every agent's clockwise refers to the same objective
// clockwise direction.
//
// Costs: one round in the lazy and perceptive models and in the basic model
// with odd n; 1 + ⌈log2 N⌉ rounds in the basic model with even (or unknown)
// parity.  The value passed to k — whether B contains the identifier of at
// least one agent — is identical at every agent.
func EmptinessTestStep(a *engine.Agent, inB bool, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	model := a.Model()

	memberDir := func(member bool) ring.Direction {
		if member {
			return ring.Clockwise
		}
		if model == ring.Lazy {
			return ring.Idle
		}
		return ring.Anticlockwise
	}

	needBitRounds := model == ring.Basic && a.NParity() != engine.ParityOdd
	if !needBitRounds {
		return a.YieldRound(memberDir(inB)), func(in engine.Resume) (engine.Yield, engine.Cont) {
			obs := in.Obs[0]
			nonEmpty := inB
			if obs.Dist != 0 || (model.RevealsCollision() && obs.Collided) {
				nonEmpty = true
			}
			return k(nonEmpty)
		}
	}
	// Basic model with even n: |B ∩ A| = n/2 can hide behind rotation index
	// zero.  Testing the bit-slices B ∩ {x : bit_i(x) = 0} recovers it: if
	// B ∩ A is non-empty but every slice has rotation index zero, all members
	// would share every identifier bit, which is impossible for n > 4.  The
	// whole schedule — membership round plus one round per identifier bit —
	// depends only on the agent's own membership and identifier, so it is
	// submitted as a single leap batch.
	bits := idBits(a)
	dirs := make([]ring.Direction, 1+bits)
	dirs[0] = memberDir(inB)
	for i := 1; i <= bits; i++ {
		dirs[i] = memberDir(inB && IDBit(a.ID(), i) == 0)
	}
	return a.YieldSchedule(dirs), func(in engine.Resume) (engine.Yield, engine.Cont) {
		nonEmpty := inB
		for _, obs := range in.Obs {
			if obs.Dist != 0 {
				nonEmpty = true
			}
		}
		return k(nonEmpty)
	}
}

// LeaderElectCommonSenseStep implements Lemma 13: with a common sense of
// direction the agent with the maximum identifier is located by binary search
// over [1, N], using EmptinessTestStep on the upper half of the remaining
// range. Cost: ⌈log2 N⌉ emptiness tests, i.e. O(log N) rounds in the lazy,
// perceptive and odd-n basic settings and O(log² N) rounds in the basic model
// with even n.
func LeaderElectCommonSenseStep(a *engine.Agent, k func(bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	var probe func(lo, hi int) (engine.Yield, engine.Cont)
	probe = func(lo, hi int) (engine.Yield, engine.Cont) {
		if lo >= hi {
			return k(a.ID() == lo)
		}
		mid := lo + (hi-lo+1)/2
		inB := a.ID() >= mid && a.ID() <= hi
		return EmptinessTestStep(a, inB, func(nonEmpty bool) (engine.Yield, engine.Cont) {
			if nonEmpty {
				return probe(mid, hi)
			}
			return probe(lo, mid-1)
		})
	}
	return probe(1, a.IDBound())
}

// BroadcastBitsStep lets a single distinguished agent publish a message of the
// given number of bits to every other agent using the global
// rotation-signalling channel: in the round for bit b the broadcaster moves
// clockwise when the bit is 1 and anticlockwise otherwise, while every other
// agent moves anticlockwise.  The rotation index is nonzero exactly when the
// bit is 1, which every agent observes through dist().
//
// Precondition: common sense of direction and a unique broadcaster.
// Cost: bits rounds.  Every agent's k receives the broadcaster's value.
func BroadcastBitsStep(a *engine.Agent, isBroadcaster bool, value uint64, bits int, k func(uint64) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if bits <= 0 || bits > 63 {
		return engine.Abort(fmt.Errorf("core: BroadcastBits supports 1..63 bits, got %d", bits))
	}
	// The whole broadcast schedule is known upfront (it depends only on the
	// broadcaster's own value), so all bit rounds go out as one leap batch.
	dirs := make([]ring.Direction, bits)
	for i := 0; i < bits; i++ {
		dirs[i] = ring.Anticlockwise
		if isBroadcaster && (value>>i)&1 == 1 {
			dirs[i] = ring.Clockwise
		}
	}
	return a.YieldSchedule(dirs), func(in engine.Resume) (engine.Yield, engine.Cont) {
		var received uint64
		for i, obs := range in.Obs {
			if obs.Dist != 0 {
				received |= 1 << i
			}
		}
		return k(received)
	}
}

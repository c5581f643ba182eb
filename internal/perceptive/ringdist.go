package perceptive

import (
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/rcomm"
	"ringsym/internal/ring"
)

// RingDistStep implements Algorithm 5: every agent learns its label, i.e. its
// clockwise ring distance from the elected leader plus one (the leader has
// label 1, its clockwise neighbour label 2, ..., its anticlockwise neighbour
// label n).
//
// Preconditions: the perceptive model, an elected unique leader, a common
// sense of direction (the agent's current one is the agreed one) and a
// configuration-preserving link (as produced by rcomm.EstablishStep after
// direction agreement).  The algorithm preserves the configuration.
//
// In iteration i (k = 2^i) the agents with labels k(j+1) for j = 1..k learn
// their labels from the arithmetic identity of Proposition 37/Corollary 38:
// the distance 2z to their first collision in Shift(k) equals the sum of the
// displacements y_1..y_j observed in j executions of Shift(−k/2) exactly when
// their label is k + jk.  Newly labelled agents then announce their label
// within ring distance k, which labels everybody up to a_{k²+2k}.  The loop
// ends when the leader's anticlockwise neighbour (which knows it is the last
// agent from the initial announcement) reports, through a rotation-signalling
// round, that it has learned its label.
//
// k receives the agent's label and whether it is the last agent (label
// n).  Cost: O(√n·log N) rounds.
func RingDistStep(a *engine.Agent, link *rcomm.Link, isLeader bool, k func(label int, isLast bool) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if !a.Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	label := 0
	if isLeader {
		label = 1
	}
	isLast := false

	// shiftDir is the agent's direction in one round of Shift(l) (for l > 0)
	// or Shift(-|l|) (for l < 0): agents with a known label at most |l| move
	// clockwise (resp. anticlockwise), everybody else the other way.
	shiftDir := func(l int) ring.Direction {
		limit := l
		inside := ring.Clockwise
		if l < 0 {
			limit = -l
			inside = ring.Anticlockwise
		}
		if label != 0 && label <= limit {
			return inside
		}
		return inside.Opposite()
	}

	// The leader announces itself over ring distance 4 so that agents a_2..a_5
	// know their labels before the first iteration, and a_n learns that it is
	// the leader's anticlockwise neighbour.
	return link.DisseminateSparseStep(isLeader, 1, 1, 4, func(left, right rcomm.SideInfo) (engine.Yield, engine.Cont) {
		if right.Found && right.Hops == 1 && !isLeader {
			isLast = true
		}
		if label == 0 && left.Found {
			label = 1 + left.Hops
		}

		var iter func(kk int) (engine.Yield, engine.Cont)
		iter = func(kk int) (engine.Yield, engine.Cont) {
			if kk > 4*a.IDBound() {
				return engine.Abort(fmt.Errorf("%w: RingDist exceeded the identifier bound", ErrExhausted))
			}
			// Phase A: k executions of Shift(-k/2); record the anticlockwise
			// displacement of each.  The agent's direction is constant for the
			// whole phase (labels only change in phase C), so the k rounds are
			// one leap batch — and so is the undo phase, whose observations are
			// discarded and therefore only need the aggregate form.
			return a.YieldRoundN(shiftDir(-(kk / 2)), kk), func(in engine.Resume) (engine.Yield, engine.Cont) {
				ys := make([]int64, 0, kk)
				for _, obs := range in.Obs {
					y := int64(0)
					if obs.Dist != 0 {
						y = a.FullCircle() - obs.Dist
					}
					ys = append(ys, y)
				}
				return a.YieldRoundSum(shiftDir(kk/2), kk), func(engine.Resume) (engine.Yield, engine.Cont) {
					// Phase B: Shift(k) yields the first-collision distance z;
					// Shift(-k) undoes it.
					return a.YieldRound(shiftDir(kk)), func(in engine.Resume) (engine.Yield, engine.Cont) {
						obsZ := in.Obs[0]
						return a.YieldRound(shiftDir(-kk)), func(engine.Resume) (engine.Yield, engine.Cont) {
							// Corollary 38: an unlabelled agent has label k + jk
							// exactly when twice its first-collision distance
							// equals y_1 + ... + y_j.  Agents that already know
							// such a label (from an earlier iteration) mark
							// themselves again, exactly as in the paper, so that
							// the contiguous coverage of announced labels keeps
							// extending by k² per iteration.
							marked := false
							switch {
							case label > kk && label%kk == 0 && label <= kk*kk+kk:
								marked = true
							case label == 0 && obsZ.Collided:
								var sum int64
								for j := 0; j < kk; j++ {
									sum += ys[j]
									if 2*obsZ.Coll == sum {
										label = kk + (j+1)*kk
										marked = true
										break
									}
								}
							}
							// Phase C: newly labelled agents announce their label
							// over distance k.
							labelBits := comb.Bits(kk*kk + kk)
							payload := uint64(0)
							if marked {
								payload = uint64(label)
							}
							return link.DisseminateSparseStep(marked, payload, labelBits, kk, func(dl, dr rcomm.SideInfo) (engine.Yield, engine.Cont) {
								if label == 0 {
									switch {
									case dl.Found:
										// The source sits on our anticlockwise
										// side: we are dl.Hops positions
										// clockwise of it.
										label = int(dl.Payload) + dl.Hops
									case dr.Found:
										label = int(dr.Payload) - dr.Hops
									}
								}
								// Completeness check: a_n moves clockwise iff it
								// knows its label, everybody else anticlockwise;
								// the rotation index is nonzero exactly when a_n
								// is labelled, which (by the contiguous coverage
								// of labels) means everybody is.  The probe is
								// paired with a reversed round so the
								// configuration is preserved.
								probeDir := ring.Anticlockwise
								if isLast && label != 0 {
									probeDir = ring.Clockwise
								}
								return core.RoundPairStep(a, probeDir, func(obs engine.Observation) (engine.Yield, engine.Cont) {
									if obs.Dist != 0 {
										return k(label, isLast)
									}
									return iter(kk * 2)
								})
							})
						}
					}
				}
			}
		}
		return iter(2)
	})
}

// BroadcastSizeStep makes the last agent (label n, the leader's anticlockwise
// neighbour) announce the network size n to every agent over the
// rotation-signalling channel, one bit per paired round, so the configuration
// is preserved.  Every agent's k receives n.  Cost: 2·⌈log2 N⌉ rounds.
func BroadcastSizeStep(a *engine.Agent, isLast bool, ownLabel int, k func(int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	bits := comb.Bits(a.IDBound())
	value := uint64(0)
	if isLast {
		value = uint64(ownLabel)
	}
	// The full schedule — one information round plus one reversed round per
	// bit — depends only on the broadcaster's own value, so the whole
	// broadcast is one leap batch.
	dirs := make([]ring.Direction, 0, 2*bits)
	for i := 0; i < bits; i++ {
		dir := ring.Anticlockwise
		if isLast && (value>>i)&1 == 1 {
			dir = ring.Clockwise
		}
		dirs = append(dirs, dir, dir.Opposite())
	}
	return a.YieldSchedule(dirs), func(in engine.Resume) (engine.Yield, engine.Cont) {
		var received uint64
		for i := 0; i < bits; i++ {
			if in.Obs[2*i].Dist != 0 {
				received |= 1 << i
			}
		}
		if isLast {
			return k(ownLabel)
		}
		return k(int(received))
	}
}

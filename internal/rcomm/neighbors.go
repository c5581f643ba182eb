// Package rcomm implements the communication layer of Section V-A of the
// paper: in the perceptive model the position of the first collision lets
// neighbouring agents exchange information even though the model has no
// messages.  The package provides neighbour discovery (Algorithm 3), a 1-bit
// exchange between neighbours (Proposition 31), word exchange, and
// information dissemination along the ring (Corollaries 33 and 34), which
// together simulate a message-passing ring on top of the bouncing-agents
// model.
//
// None of the primitives requires a common sense of direction: every agent
// learns the relative orientation of its neighbours during neighbour
// discovery and all bookkeeping is done in each agent's own frame.  Every
// round issued by this package is paired with a reversed round, so the
// configuration of the ring (and hence the measured neighbour gaps) is
// restored after every operation.
package rcomm

import (
	"errors"
	"fmt"

	"ringsym/internal/comb"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// Errors returned by the package.
var (
	ErrNeedPerceptive = errors.New("rcomm: the communication layer requires the perceptive model")
	ErrNoNeighbour    = errors.New("rcomm: neighbour discovery failed to locate a neighbour")
	ErrBadBits        = errors.New("rcomm: unsupported word width")
)

// Neighbors is the outcome of neighbour discovery for one agent.  Gaps are in
// half-ticks (observation units) and sides are relative to the agent's frame
// at the time of discovery.
type Neighbors struct {
	// RightGap is the arc to the neighbour on the agent's frame-clockwise
	// side.
	RightGap int64
	// LeftGap is the arc to the neighbour on the agent's frame-anticlockwise
	// side.
	LeftGap int64
	// RightSameSense reports whether the right neighbour's frame clockwise
	// direction coincides with this agent's.
	RightSameSense bool
	// LeftSameSense is the analogous flag for the left neighbour.
	LeftSameSense bool
}

// NeighborDiscoveryStep implements Algorithm 3.  Every agent probes its
// neighbourhood for O(log N) paired rounds; because any two identifiers
// differ in some bit, each agent is guaranteed a round in which it moves
// towards each neighbour while that neighbour moves towards it, which pins
// the gap to exactly half the distance of the first collision.  Whether the
// tight collision happened in a differing-bit round or in the all-clockwise /
// all-anticlockwise round reveals the neighbour's relative orientation.
//
// Cost: 4·⌈log2 N⌉ + 4 rounds.  Positions are restored afterwards.
func NeighborDiscoveryStep(a *engine.Agent, k func(Neighbors) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if !a.Model().RevealsCollision() {
		return engine.Abort(ErrNeedPerceptive)
	}
	type probe struct {
		movedCW bool  // whether this agent moved frame-clockwise
		allSame bool  // whether the round was an all-same-direction round
		coll    int64 // first-collision arc, -1 when no collision
	}
	type probeSpec struct {
		dir     ring.Direction
		allSame bool
	}

	bits := comb.Bits(a.IDBound())
	specs := make([]probeSpec, 0, 2*bits+2)
	for i := 1; i <= bits; i++ {
		for phase := 0; phase <= 1; phase++ {
			dir := ring.Anticlockwise
			if core.IDBit(a.ID(), i) == phase {
				dir = ring.Clockwise
			}
			specs = append(specs, probeSpec{dir: dir})
		}
	}
	specs = append(specs,
		probeSpec{dir: ring.Clockwise, allSame: true},
		probeSpec{dir: ring.Anticlockwise, allSame: true})

	probes := make([]probe, 0, len(specs))
	side := func(cw bool) (gap int64, sameSense bool, err error) {
		min := int64(-1)
		allSameColl := int64(-1)
		for _, p := range probes {
			if p.movedCW != cw {
				continue
			}
			if p.allSame {
				allSameColl = p.coll
			}
			if p.coll < 0 {
				continue
			}
			if min < 0 || p.coll < min {
				min = p.coll
			}
		}
		if min < 0 {
			return 0, false, fmt.Errorf("%w (moving clockwise=%v)", ErrNoNeighbour, cw)
		}
		// In the round where every agent moves the same frame direction, a
		// neighbour with the opposite sense of direction moves towards us and
		// produces the tight collision at half the gap; a neighbour with the
		// same sense moves away and the first collision (if any) is strictly
		// farther.  The neighbour's orientation therefore follows from
		// whether that round achieved the minimum.
		return 2 * min, allSameColl != min, nil
	}

	var next func(i int) (engine.Yield, engine.Cont)
	next = func(i int) (engine.Yield, engine.Cont) {
		if i == len(specs) {
			var nb Neighbors
			var err error
			if nb.RightGap, nb.RightSameSense, err = side(true); err != nil {
				return engine.Abort(err)
			}
			if nb.LeftGap, nb.LeftSameSense, err = side(false); err != nil {
				return engine.Abort(err)
			}
			return k(nb)
		}
		sp := specs[i]
		return core.RoundPairStep(a, sp.dir, func(obs engine.Observation) (engine.Yield, engine.Cont) {
			coll := int64(-1)
			if obs.Collided {
				coll = obs.Coll
			}
			probes = append(probes, probe{movedCW: sp.dir == ring.Clockwise, allSame: sp.allSame, coll: coll})
			return next(i + 1)
		})
	}
	return next(0)
}

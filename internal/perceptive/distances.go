package perceptive

import (
	"fmt"

	"ringsym/internal/arcsolve"
	"ringsym/internal/core"
	"ringsym/internal/engine"
	"ringsym/internal/ring"
)

// convolutionException returns the even label that is exceptionally sent
// clockwise in the t-th Convolution round (Algorithm 6 uses
// j = (n − 2(t−1))/2, i.e. the exception label walks downwards from the
// largest even label by two per round, wrapping around).
func convolutionException(n, t int) int {
	m := n / 2
	j := (m - (t - 1)) % m
	if j <= 0 {
		j += m
	}
	return 2 * j
}

// convolutionDir is the direction of the agent with the given label in
// Convolution(e/2): odd labels move clockwise, even labels anticlockwise,
// except label e which moves clockwise.
func convolutionDir(label, e int) ring.Direction {
	if label%2 == 1 || label == e {
		return ring.Clockwise
	}
	return ring.Anticlockwise
}

// convolutionRotation is the rotation index of a Convolution round on n
// agents (2 for even n, 3 for odd n).
func convolutionRotation(n int) int {
	numCW := (n+1)/2 + 1
	return ((2*numCW-n)%n + n) % n
}

// pivotDir is the direction of the agent with the given label in Pivot(p):
// the n/2 agents clockwise of the pivot point (labels p+1..p+n/2) move
// anticlockwise and the other half moves clockwise, so the rotation index is
// zero while the collisions around the pivot yield fresh equations.
func pivotDir(label, p, n int) ring.Direction {
	d := ((label-(p+1))%n + n) % n
	if d < n/2 {
		return ring.Anticlockwise
	}
	return ring.Clockwise
}

// spanToOpposite returns the number of ring positions from the agent with
// myLabel to the nearest agent, in the direction of myDir, that moves in the
// opposite direction under the assignment dirOf.  ok is false when every
// agent moves the same way.
func spanToOpposite(dirOf func(label int) ring.Direction, myLabel, n int, myDir ring.Direction) (span int, ok bool) {
	want := myDir.Opposite()
	step := 1
	if myDir == ring.Anticlockwise {
		step = -1
	}
	for s := 1; s < n; s++ {
		l := myLabel + step*s
		l = ((l-1)%n+n)%n + 1
		if dirOf(l) == want {
			return s, true
		}
	}
	return 0, false
}

// DistancesStep implements Algorithm 6 together with the equation bookkeeping
// that the paper describes informally: every round contributes the dist()
// equation (an arc of `rotation index` consecutive gaps) and, when the agent
// collides, the coll() equation (the arc to the nearest oppositely-moving
// agent, which the agent can identify because the schedule is a function of
// the publicly known labels).  The equations are difference constraints over
// the prefix sums of the unknown gaps and are solved incrementally
// (internal/arcsolve).
//
// The schedule is the paper's: ⌈n/2⌉ Convolution rounds followed, for even n,
// by Pivot(n), Pivot(n−1), Pivot(n−2).  A completeness loop (one paired probe
// round plus, if needed, one extra Convolution round per iteration) guards
// the reconstruction so that every agent provably terminates with the full
// gap vector; with the paper's schedule the loop exits immediately.
//
// Preconditions: perceptive model, common sense of direction, labels and n
// known (RingDist + BroadcastSize), configuration equal to the reference
// configuration the labels refer to.
//
// k receives the leader-relative gap vector (g_j is the arc from the agent
// with label j+1 to the agent with label j+2) and the agent's final ring
// offset from the reference configuration.
func DistancesStep(a *engine.Agent, label, n int, k func(gaps []int64, finalOffset int) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if label < 1 || label > n || n < 5 {
		return engine.Abort(fmt.Errorf("%w: label %d of %d", ErrProtocol, label, n))
	}
	solver, err := arcsolve.New(n, a.FullCircle())
	if err != nil {
		return engine.Abort(err)
	}
	rel := label - 1
	offset := 0

	// record folds one round's observation into the solver: the dist()
	// equation of the round's rotation and, on a collision, the coll()
	// equation against the nearest oppositely-moving agent (identifiable
	// because the schedule is a function of the public labels).
	record := func(dirOf func(label int) ring.Direction, rotation int, obs engine.Observation) error {
		myDir := dirOf(label)
		cur := ((rel+offset)%n + n) % n
		if rotation%n != 0 {
			if err := solver.AddArc(cur, rotation%n, obs.Dist); err != nil {
				return err
			}
		}
		if obs.Collided {
			if span, ok := spanToOpposite(dirOf, label, n, myDir); ok {
				from := cur
				if myDir == ring.Anticlockwise {
					from = ((cur-span)%n + n) % n
				}
				if err := solver.AddArc(from, span, 2*obs.Coll); err != nil {
					return err
				}
			}
		}
		offset = (offset + rotation) % n
		return nil
	}

	convolutionStep := func(t int, next func() (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
		e := convolutionException(n, t)
		dirOf := func(l int) ring.Direction { return convolutionDir(l, e) }
		return a.YieldRound(dirOf(label)), func(in engine.Resume) (engine.Yield, engine.Cont) {
			if err := record(dirOf, convolutionRotation(n), in.Obs[0]); err != nil {
				return engine.Abort(err)
			}
			return next()
		}
	}

	// The paper's main schedule — ⌈n/2⌉ Convolution rounds plus, for even n,
	// the three Pivot rounds — is fixed by the public labels alone, so every
	// agent submits it as a single leap batch and runs the equation
	// bookkeeping over the returned trace.
	type schedRound struct {
		dirOf    func(label int) ring.Direction
		rotation int
	}
	var sched []schedRound
	for t := 1; t <= (n+1)/2; t++ {
		e := convolutionException(n, t)
		sched = append(sched, schedRound{
			dirOf:    func(l int) ring.Direction { return convolutionDir(l, e) },
			rotation: convolutionRotation(n),
		})
	}
	if n%2 == 0 {
		for _, p := range []int{n, n - 1, n - 2} {
			p := p
			sched = append(sched, schedRound{
				dirOf:    func(l int) ring.Direction { return pivotDir(l, p, n) },
				rotation: 0,
			})
		}
	}
	dirs := make([]ring.Direction, len(sched))
	for t, sr := range sched {
		dirs[t] = sr.dirOf(label)
	}
	return a.YieldSchedule(dirs), func(in engine.Resume) (engine.Yield, engine.Cont) {
		for t, sr := range sched {
			if err := record(sr.dirOf, sr.rotation, in.Obs[t]); err != nil {
				return engine.Abort(err)
			}
		}

		// Completeness loop: exit only when every agent has solved its system.
		var loop func(iter int) (engine.Yield, engine.Cont)
		loop = func(iter int) (engine.Yield, engine.Cont) {
			probeDir := ring.Clockwise
			if solver.Solved() {
				probeDir = ring.Anticlockwise
			}
			return core.RoundPairStep(a, probeDir, func(probe engine.Observation) (engine.Yield, engine.Cont) {
				if solver.Solved() && !probe.Collided && probe.Dist == 0 {
					gaps, err := solver.Gaps()
					if err != nil {
						return engine.Abort(err)
					}
					return k(gaps, offset)
				}
				if iter > 4*n {
					return engine.Abort(fmt.Errorf("%w: Distances did not converge", ErrExhausted))
				}
				return convolutionStep((n+1)/2+iter+1, func() (engine.Yield, engine.Cont) {
					return loop(iter + 1)
				})
			})
		}
		return loop(0)
	}
}

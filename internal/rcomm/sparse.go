package rcomm

import (
	"fmt"

	"ringsym/internal/engine"
)

// DisseminateSparseStep implements the sparse information dissemination task of
// Corollary 34: when the source agents are at ring distance at least `distance`
// from one another, a p-bit message travels `distance` hops in O(p + distance)
// exchange steps instead of the O(p·distance) of the generic DisseminateStep,
// because the message is pipelined bit by bit: every relay step each agent
// forwards, in each direction, the bit it received from the opposite direction
// in the previous step, delayed by exactly one hop.
//
// The stream format is a single presence bit (1) followed by the payload bits
// (LSB first); an idle channel carries zeros, which is the "nothing to
// transmit yet" encoding the paper sketches.  A receiver learns the hop
// distance to the nearest source on each side from the step at which the
// presence bit arrives.  Sources do not forward foreign streams (they are far
// enough apart that nobody within `distance` of the blocked source sits
// behind the blocking one).
//
// Cost: (1 + payloadBits + distance) relay steps of 8 rounds each.
func (l *Link) DisseminateSparseStep(isSource bool, payload uint64, payloadBits, distance int, k func(left, right SideInfo) (engine.Yield, engine.Cont)) (engine.Yield, engine.Cont) {
	if distance < 1 {
		return engine.Abort(fmt.Errorf("rcomm: dissemination distance must be positive, got %d", distance))
	}
	if payloadBits < 1 || payloadBits > 60 {
		return engine.Abort(fmt.Errorf("%w: %d payload bits", ErrBadBits, payloadBits))
	}
	steps := 1 + payloadBits + distance

	// Outgoing bit queues per direction.  A source emits its own stream; a
	// non-source starts silent and echoes what it hears.
	stream := make([]int, 0, 1+payloadBits)
	stream = append(stream, 1)
	for i := 0; i < payloadBits; i++ {
		stream = append(stream, int((payload>>i)&1))
	}
	nextBit := func(queue *[]int) int {
		if len(*queue) == 0 {
			return 0
		}
		b := (*queue)[0]
		*queue = (*queue)[1:]
		return b
	}

	var toRight, toLeft []int
	if isSource {
		toRight = append([]int(nil), stream...)
		toLeft = append([]int(nil), stream...)
	}
	// Receiver state per side.
	type recv struct {
		started bool
		startAt int
		bits    []int
		info    SideInfo
	}
	var fromLeft, fromRight recv

	record := func(r *recv, bit, step int) {
		if r.info.Found {
			return
		}
		if !r.started {
			if bit == 1 {
				r.started = true
				r.startAt = step
			}
			return
		}
		r.bits = append(r.bits, bit)
		if len(r.bits) == payloadBits {
			var v uint64
			for i, b := range r.bits {
				v |= uint64(b) << i
			}
			// The presence bit of a source at hop distance h arrives at
			// relay step h (steps are 1-based).
			r.info = SideInfo{Found: true, Payload: v, Hops: r.startAt}
		}
	}

	// A receiver only reports sources whose full payload arrived within the
	// distance budget.
	clip := func(r recv) SideInfo {
		if !r.info.Found || r.info.Hops > distance {
			return SideInfo{}
		}
		return r.info
	}

	var relayStep func(step int) (engine.Yield, engine.Cont)
	relayStep = func(step int) (engine.Yield, engine.Cont) {
		if step > steps {
			return k(clip(fromLeft), clip(fromRight))
		}
		outL := nextBit(&toLeft)
		outR := nextBit(&toRight)
		return l.ExchangeStep(uint64(outL), uint64(outR), 1, func(gotL, gotR uint64) (engine.Yield, engine.Cont) {
			record(&fromLeft, int(gotL&1), step)
			record(&fromRight, int(gotR&1), step)
			if !isSource {
				// Relay with a one-step delay: what arrived from the left goes
				// out to the right next step, and vice versa.
				toRight = append(toRight, int(gotL&1))
				toLeft = append(toLeft, int(gotR&1))
			}
			return relayStep(step + 1)
		})
	}
	return relayStep(1)
}

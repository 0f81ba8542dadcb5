package simnet

// Clock is a monotonic cursor over virtual time. Simulation drivers thread
// one Clock through a deployment instead of shuttling VTime values by
// hand: every completed operation advances it, and it never moves
// backwards, so out-of-order bookkeeping cannot rewind the simulation.
//
// A Clock is not safe for concurrent use; the experiment drivers that own
// one are single-threaded (the fabric synchronizes its own state).
type Clock struct {
	now VTime
}

// NewClock returns a clock positioned at the given virtual time.
func NewClock(start VTime) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() VTime { return c.now }

// Advance moves the clock forward to t and returns the resulting time.
// Times at or before the current position are ignored, keeping the clock
// monotonic: advancing past a parallel fan-out's stragglers is a no-op.
func (c *Clock) Advance(t VTime) VTime {
	if t > c.now {
		c.now = t
	}
	return c.now
}

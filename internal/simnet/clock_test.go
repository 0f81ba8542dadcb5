package simnet

import "testing"

func TestClockAdvanceMonotonic(t *testing.T) {
	c := NewClock(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %v, want 100", got)
	}
	if got := c.Advance(250); got != 250 || c.Now() != 250 {
		t.Errorf("Advance(250) = %v, Now() = %v, want 250", got, c.Now())
	}
	// moving backwards is a no-op
	if got := c.Advance(80); got != 250 || c.Now() != 250 {
		t.Errorf("Advance(80) rewound the clock: %v", c.Now())
	}
	if got := c.Advance(250); got != 250 {
		t.Errorf("Advance(now) changed the clock: %v", got)
	}
}

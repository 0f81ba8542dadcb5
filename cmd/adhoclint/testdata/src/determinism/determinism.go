// Package determinism is the determinism rule fixture: internal non-test
// code must not read wall clocks or the global math/rand source.
package determinism

import (
	"math/rand"
	"time"
)

// Good uses injected or locally seeded randomness and virtual durations.
func Good(rng *rand.Rand) int {
	r := rand.New(rand.NewSource(7)) // constructors stay allowed
	d := 2 * time.Millisecond        // durations are values, not clock reads
	return r.Intn(10) + rng.Intn(int(d))
}

func BadNow() int64 {
	return time.Now().UnixNano() // want "time.Now in internal package"
}

func BadSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep in internal package"
}

func BadGlobalRand() int {
	return rand.Intn(4) // want "global math/rand.Intn"
}

func BadShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

// BadSleepStaleIgnore: an ignore naming no rule the linter has — here the
// retired wireiso — suppresses nothing.
func BadSleepStaleIgnore() {
	//adhoclint:ignore wireiso a retired rule's name is not a rule
	time.Sleep(time.Millisecond) // want "time.Sleep in internal package"
}

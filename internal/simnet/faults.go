package simnet

import (
	"errors"
	"fmt"
)

// Fault-injection errors. They are distinct so callers can reason about
// handler side effects: a lost request means the handler never ran (safe
// to retry against any handler), while a lost reply means the handler
// completed and only the acknowledgement vanished (retrying re-executes
// the handler, so the handler must be idempotent, as
// TestRetryRerunsHandlerAfterLostReply shows).
var (
	// ErrMessageLost indicates the request (or one-way) leg was dropped in
	// transit: the destination handler never ran.
	ErrMessageLost = errors.New("simnet: message lost in transit")
	// ErrReplyLost indicates the response leg was dropped in transit: the
	// destination handler completed, but the caller never learned it.
	ErrReplyLost = errors.New("simnet: reply lost in transit")
)

// IsLost reports whether err is a fault-injected message loss on either
// leg. Lost messages are the retryable failure class: the destination is
// still alive, so re-sending (after the FailTimeout spent discovering the
// loss) can succeed, unlike ErrUnreachable where only a fallback target
// helps.
func IsLost(err error) bool {
	return errors.Is(err, ErrMessageLost) || errors.Is(err, ErrReplyLost)
}

// CrashWindow schedules a crash in virtual time: the node is unreachable
// for any message whose delivery falls inside [From, Until). Until = 0
// means the node never recovers. Because the window is keyed to VTime,
// a node can die between the hops of a single query — crash-mid-operation
// — while remaining fully deterministic for a given schedule.
type CrashWindow struct {
	Node  Addr
	From  VTime
	Until VTime
}

// covers reports whether t falls inside the window.
func (w CrashWindow) covers(t VTime) bool {
	return t >= w.From && (w.Until == 0 || t < w.Until)
}

// FaultPlan is a deterministic fault-injection schedule. The zero value
// (or a nil plan) injects nothing.
//
// Loss decisions are NOT drawn from a shared RNG stream: several client
// goroutines may drive one deployment, which makes draw order
// scheduler-dependent, and a leg replayed at the same virtual time must
// meet the same fate. Instead each message leg hashes
// (Seed, from, to, method, direction, departure VTime, size) to a uniform
// value in [0,1) and is dropped when that value falls below LossRate.
// A retry departs later, so it gets an independent draw and can succeed.
type FaultPlan struct {
	// Seed salts every loss draw. Different seeds give independent loss
	// patterns at the same rate.
	Seed int64
	// LossRate is the per-leg drop probability in [0, 1). Every request,
	// response and one-way leg between distinct nodes draws independently.
	LossRate float64
	// Crashes lists scheduled crash windows, applied on top of message
	// loss. Experiments derive these from the master RNG.
	Crashes []CrashWindow
}

// crashed reports whether addr is inside a scheduled crash window at t.
func (f *FaultPlan) crashed(addr Addr, t VTime) bool {
	if f == nil {
		return false
	}
	for _, w := range f.Crashes {
		if w.Node == addr && w.covers(t) {
			return true
		}
	}
	return false
}

// drop decides the fate of one message leg, purely from the plan seed and
// the leg's coordinates.
func (f *FaultPlan) drop(from, to Addr, method, dir string, at VTime, size int) bool {
	if f == nil || f.LossRate <= 0 {
		return false
	}
	h := mix64(uint64(f.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ hashString(string(from)))
	h = mix64(h ^ hashString(string(to)))
	h = mix64(h ^ hashString(method))
	h = mix64(h ^ hashString(dir))
	h = mix64(h ^ uint64(at))
	h = mix64(h ^ uint64(size))
	// 53 high bits → uniform float64 in [0, 1).
	return float64(h>>11)/(1<<53) < f.LossRate
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on 64-bit
// words, so any single-bit change in the leg coordinates flips roughly
// half of the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a over the string bytes.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// SetFaults installs (or, with nil, removes) a fault-injection plan. The
// plan applies to every subsequent Call/Forward; installing it does
// not disturb metrics or membership.
func (n *Network) SetFaults(plan *FaultPlan) { n.setHooks(func(h *hooks) { h.faults = plan }) }

// retryAttempts is the retry budget for lost messages: the first try plus
// two re-sends. At the 1–5% loss rates the experiments inject, three
// independent draws make an unrecovered loss vanishingly rare while
// bounding the FailTimeout a pathological link can accumulate.
const retryAttempts = 3

// CallRetry is Call re-sent while it fails with a fault-injected loss
// (IsLost), up to retryAttempts times. Each attempt departs at the previous
// attempt's end, so the FailTimeout charged for discovering a loss
// accumulates on the caller's critical path. Non-loss errors
// (ErrUnreachable, ErrUnknownNode, application errors) return at once:
// they need a fallback target or a caller decision, not a re-send.
//
// A lost reply means the handler already ran, so a method retried here must
// be idempotent; its Method* constant says why its handler is.
func (n *Network) CallRetry(from, to Addr, method string, req Payload, at VTime) (Payload, VTime, error) {
	var (
		resp Payload
		err  error
	)
	for i := 0; i < retryAttempts; i++ {
		if resp, at, err = n.Call(from, to, method, req, at); err == nil || !IsLost(err) {
			return resp, at, err
		}
	}
	return resp, at, retryExhausted(err)
}

// ForwardRetry is a one-way data leg — Forward with no replyTo — re-sent
// on loss under CallRetry's budget. No leg of a route is acknowledged, so
// the sender learns of a loss only when FailTimeout has passed since the
// departure; the re-send departs then. The receiver's handler takes
// ownership of the delivered payload, and its result is returned.
func (n *Network) ForwardRetry(from, to Addr, method string, req Payload, at VTime) (Payload, VTime, error) {
	var (
		resp Payload
		err  error
	)
	for i := 0; i < retryAttempts; i++ {
		if resp, at, err = n.Forward(from, to, method, req, "", at); err == nil || !IsLost(err) {
			return resp, at, err
		}
		at = at.Add(n.cfg.FailTimeout)
	}
	return resp, at, retryExhausted(err)
}

// retryExhausted wraps the last loss of a spent retry budget.
func retryExhausted(err error) error {
	return fmt.Errorf("%w (after %d attempts)", err, retryAttempts)
}

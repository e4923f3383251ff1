// Package invariant is the cross-layer invariant checker: cheap
// conservation assertions evaluated at layer boundaries while a trial
// runs. It exists to make the chaos fuzz campaign meaningful — a trial
// that silently mis-accounts bytes or drives the player buffer negative
// still "completes", but an armed checker turns the first violated
// property into a deterministic, attributable failure at the exact
// virtual instant it happened.
//
// Every checked property is one Rule of the table below; a call site
// names it as a value, never as a string:
//
//	if chk := s.Checker(); chk.Enabled() && sent != acked+lost+inflight {
//		chk.Failf(invariant.QuicPacketConservation, "sent %d != …", sent)
//	}
//
// The package follows the same nil-is-free contract as obs: a nil
// *Checker is the disabled state, every method no-ops on a nil receiver
// at zero cost (one predictable branch, no allocations), and the
// instrumented hot paths — the QUIC* ACK path, the netem serve loop, the
// player clock — stay at 0 allocs/op with checking off. An armed checker
// only allocates when a violation actually fires (formatting the detail
// string), at which point the trial is dead anyway.
//
// A violation is reported by panicking with a *Violation. The experiment
// harness wraps every trial in recover(), so a violation becomes a typed
// exp.TrialError carrying the rule's name, seed, and virtual clock instead
// of killing the sweep. Code outside a harness-managed trial (unit tests,
// direct library use) sees an ordinary panic with a descriptive message.
package invariant

import "fmt"

// Rule is one checked property. Its String is the rule's name,
// "<layer>.<check>": the string a TrialError, a crash artifact and a sweep
// checkpoint carry. Each rule has a TestWitness test, named after its
// constant, that breaks the property and sees the rule fire.
type Rule uint8

const (
	// SimClockMonotone: the virtual clock never moves backwards.
	SimClockMonotone Rule = iota
	// NetemDoneExactlyOnce: a delivered datagram's Done runs once, after its
	// final copy; no copy arrives after that.
	NetemDoneExactlyOnce
	// NetemDatagramConservation: every datagram a link was offered is
	// exactly one of queue-dropped, impairment-dropped, delivered or queued.
	NetemDatagramConservation
	// QuicPacketConservation: every ack-eliciting packet sent is exactly one
	// of acknowledged, declared lost or in flight.
	QuicPacketConservation
	// QuicByteConservation: the same identity over those packets' bytes.
	QuicByteConservation
	// QuicReliableContiguity: a reliable stream finishes with its bytes
	// received as one range from offset 0, never with a gap.
	QuicReliableContiguity
	// QuicWireRoundtrip: a packet's frames encode to exactly the size the
	// link is charged and decode to exactly what the peer is handed.
	QuicWireRoundtrip
	// HttpsimCompletesOnce: an HTTP request resolves once — it reaches
	// OnComplete or OnFail at most once, retries and failover included.
	HttpsimCompletesOnce
	// PlayerBufferNonnegative: the playout buffer, the stall total and the
	// clock's step never go negative.
	PlayerBufferNonnegative
	// PlayerSettleCoverage: a settled download's received and lost ranges
	// lie within its plan, and cover all of it once every request resolved.
	PlayerSettleCoverage
	// ExpInjectedFault: the deliberate violation Config.Inject schedules.
	ExpInjectedFault
	numRules
)

var ruleNames = [numRules]string{
	SimClockMonotone:          "sim.clock-monotone",
	NetemDoneExactlyOnce:      "netem.done-exactly-once",
	NetemDatagramConservation: "netem.datagram-conservation",
	QuicPacketConservation:    "quic.packet-conservation",
	QuicByteConservation:      "quic.byte-conservation",
	QuicReliableContiguity:    "quic.reliable-contiguity",
	QuicWireRoundtrip:         "quic.wire-roundtrip",
	HttpsimCompletesOnce:      "httpsim.completes-once",
	PlayerBufferNonnegative:   "player.buffer-nonnegative",
	PlayerSettleCoverage:      "player.settle-coverage",
	ExpInjectedFault:          "exp.injected-fault",
}

// String returns the rule's name, "<layer>.<check>".
func (r Rule) String() string { return ruleNames[r] }

// Violation is the panic payload for a broken invariant: the rule it broke
// and a human-readable account of the observed values.
type Violation struct {
	Rule   Rule
	Detail string
}

// Error makes a Violation usable as an error value after recovery.
func (v *Violation) Error() string {
	return "invariant violated: " + v.Rule.String() + ": " + v.Detail
}

// Checker is the arming handle threaded through the stack, one per trial
// world. The zero pointer is the disabled state; construct with New to
// arm. A Checker carries no mutable state — it is only a witness that
// checking is on — so sharing one across the layers of a single-threaded
// trial world is free.
type Checker struct{}

// New returns an armed checker.
func New() *Checker { return &Checker{} }

// Enabled reports whether checks are armed. Call sites guard any
// non-trivial precondition computation behind it.
func (c *Checker) Enabled() bool { return c != nil }

// Failf reports a violation of rule unconditionally, formatting the
// observed values into the detail. Callers reach it only from a failed
// Enabled()-guarded comparison, so the fmt cost is paid exactly once per
// dead trial.
func (c *Checker) Failf(rule Rule, format string, args ...any) {
	if c == nil {
		return
	}
	panic(&Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// AsViolation extracts the Violation from a recovered panic value, if it
// is one.
func AsViolation(recovered any) (*Violation, bool) {
	v, ok := recovered.(*Violation)
	return v, ok
}

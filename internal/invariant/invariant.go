// Package invariant is the cross-layer invariant checker: cheap
// conservation assertions evaluated at layer boundaries while a trial
// runs. It exists to make the chaos fuzz campaign meaningful — a trial
// that silently mis-accounts bytes or drives the player buffer negative
// still "completes", but an armed checker turns the first violated
// property into a deterministic, attributable failure at the exact
// virtual instant it happened.
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
// exp.TrialError carrying the rule name, seed, and virtual clock instead
// of killing the sweep. Code outside a harness-managed trial (unit tests,
// direct library use) sees an ordinary panic with a descriptive message.
package invariant

import "fmt"

// Violation is the panic payload for a broken invariant. Layer and Rule
// identify the property ("quic", "quic.bytes-conservation"); Detail is a
// human-readable account of the observed values.
type Violation struct {
	Layer  string
	Rule   string
	Detail string
}

// Error makes a Violation usable as an error value after recovery.
func (v *Violation) Error() string {
	return "invariant violated: " + v.Rule + ": " + v.Detail
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
// non-trivial precondition computation behind it:
//
//	if chk.Enabled() && total != acked+lost+inflight { chk.Failf(...) }
func (c *Checker) Enabled() bool { return c != nil }

// Check panics with a Violation when ok is false. The message must be a
// constant; use Failf when the detail needs observed values.
func (c *Checker) Check(ok bool, layer, rule, msg string) {
	if c == nil || ok {
		return
	}
	panic(&Violation{Layer: layer, Rule: rule, Detail: msg})
}

// Failf reports a violation unconditionally, formatting the observed
// values into the detail. Callers reach it only from a failed Enabled()
// -guarded comparison, so the fmt cost is paid exactly once per dead
// trial.
func (c *Checker) Failf(layer, rule, format string, args ...any) {
	if c == nil {
		return
	}
	panic(&Violation{Layer: layer, Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// AsViolation extracts the Violation from a recovered panic value, if it
// is one.
func AsViolation(recovered any) (*Violation, bool) {
	v, ok := recovered.(*Violation)
	return v, ok
}

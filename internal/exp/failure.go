package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"voxel/internal/invariant"
)

// TrialError is the structured failure record of one trial: a recovered
// panic, a violated invariant, a breached watchdog budget, or a setup
// error. The surviving trials of the sweep keep running; failures land in
// Aggregate.Failed in (config, trial) order with everything needed to
// replay the case deterministically. The JSON form is the failure record of
// the sweep checkpoint format (internal/sweep, version 1).
type TrialError struct {
	// Config is the cell the trial belonged to (post-defaulting). It is not
	// serialized: a checkpoint stores results under one file-level config
	// identity and stamps it back on load.
	Config Config `json:"-"`
	// Trial is the failing trial's index within the sweep; Seed is the
	// derived per-trial seed the world was built with.
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`
	// Session is the swarm session under construction when the failure
	// hit, or -1 once the event loop was running (a mid-run failure is not
	// attributable to one session from outside the world).
	Session int `json:"session"`
	// Clock is the virtual time at which the trial died.
	Clock time.Duration `json:"clock_ns"`
	// Rule classifies the failure: an invariant rule
	// ("quic.byte-conservation"), a watchdog rule ("watchdog.wall-budget",
	// "watchdog.event-budget"), or "panic" / "error" for everything else.
	Rule string `json:"rule"`
	// Msg is the panic value, violation detail, or error text.
	Msg string `json:"msg"`
	// Stack is the goroutine stack at the recovery point (panics only).
	Stack string `json:"stack,omitempty"`
}

// Error summarizes the failure on one line.
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d (seed %d) failed at %v: %s: %s",
		e.Trial, e.Seed, e.Clock, e.Rule, e.Msg)
}

// Artifact is the standalone, replayable record of one failing trial: the
// cell's Spec, the failing trial's index within its sweep, and the rule the
// failure broke. It is what voxel-fuzz writes for a shrunk crash and what
// `voxel-sim -repro file.json` reads; replay runs exactly the recorded Spec
// and passes only when the same rule fires again.
type Artifact struct {
	Spec  Spec `json:"spec"`
	Trial int  `json:"trial"`
	// Violation is the failure rule ("quic.byte-conservation",
	// "watchdog.event-budget", "panic"); empty accepts any failure. Detail
	// preserves the original failure message for humans.
	Violation string `json:"violation,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// Artifact converts the failure into its crash artifact.
func (e *TrialError) Artifact() *Artifact {
	return &Artifact{Spec: e.Config.Spec(), Trial: e.Trial, Violation: e.Rule, Detail: e.Msg}
}

// ReplayCommand returns a copy-pasteable shell line that deterministically
// reproduces the failing sweep (the failure fires at the same trial index,
// since trials are independent worlds keyed by seed): the artifact itself,
// piped to voxel-sim, so the replay is lossless for every Config field.
// Detail is left out — it is printed next to the command, and it is the one
// free-text field, whose backslash escapes some shells' echo would expand.
func (e *TrialError) ReplayCommand() string {
	a := e.Artifact()
	a.Detail = ""
	b, err := json.Marshal(a)
	if err != nil {
		panic(err) // scalars and strings only; Marshal cannot fail
	}
	return "echo '" + strings.ReplaceAll(string(b), "'", `'\''`) + "' | go run ./cmd/voxel-sim -repro -"
}

// Encode renders the artifact as stable, indented JSON (trailing newline),
// so identical cases produce identical bytes and diff cleanly in review.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	return append(b, '\n'), err
}

// DecodeArtifact parses an artifact strictly: an unknown field — a typo in
// a hand-edited case, or the flat pre-Spec layout — fails loudly instead of
// silently changing the repro.
func DecodeArtifact(b []byte) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf(`exp: artifact: %v (the layout is {"spec": {exp.Spec fields}, "trial", "violation", "detail"})`, err)
	}
	if a.Spec.Title == "" {
		return nil, fmt.Errorf(`exp: artifact has no "spec" with a "title"`)
	}
	return &a, nil
}

// Default watchdog budgets used by hardened CLI runs and the fuzz campaign:
// lax enough for the heaviest legitimate trial (a 512-session swarm runs in
// well under a minute), tight enough to catch a wedged one.
const (
	DefaultWatchdogWall   = 2 * time.Minute
	DefaultWatchdogEvents = 500_000_000
)

// FailureHook, when non-nil, observes the TrialError of every failing trial
// this process computes, exactly once each, in (config, trial) order at any
// parallelism: the executor calls it from its serialized result stream, on
// the goroutine that called Run, just before the trial reaches the sink.
// Results that were not computed here — trials restored from a checkpoint,
// shards folded by sweep.MergeFiles or sweep.MergeAggregates — never fire
// it; whoever ran them already did. CLIs that drive many sweeps through layers that do not surface
// Aggregate — voxel-bench's figure generators — use it to collect failures
// for the final report.
var FailureHook func(*TrialError)

// errf builds a TrialError for a non-panic failure, stamped with the
// world's identity and clock.
func (w *world) errf(rule, format string, args ...any) *TrialError {
	return &TrialError{
		Config:  w.cfg,
		Trial:   w.trial,
		Seed:    w.seed,
		Session: w.session,
		Clock:   time.Duration(w.s.Now()),
		Rule:    rule,
		Msg:     fmt.Sprintf(format, args...),
	}
}

// fromPanic converts a recovered panic value into a TrialError, unwrapping
// invariant violations into their rule and capturing the stack.
func (w *world) fromPanic(recovered any) *TrialError {
	te := w.errf("panic", "%v", recovered)
	if v, ok := invariant.AsViolation(recovered); ok {
		te.Rule = v.Rule.String()
		te.Msg = v.Detail
	}
	buf := make([]byte, 16<<10)
	te.Stack = string(buf[:runtime.Stack(buf, false)])
	return te
}

// Inject fault kinds: a plain panic from a scheduled event, a synthetic
// invariant violation, and a zero-delay event storm (the watchdog's prey).
const (
	injectPanic     = "panic"
	injectInvariant = "invariant"
	injectSpin      = "spin"
)

// injectTime is the virtual instant an injected fault fires: late enough
// that the world is streaming, early enough that every config reaches it.
const injectTime = 2 * time.Second

// parseInject splits an Inject spec "kind" or "kind@trial" and validates
// the kind. An empty spec disables injection.
func parseInject(spec string) (kind string, trial int, err error) {
	if spec == "" {
		return "", -1, nil
	}
	kind, rest, scoped := strings.Cut(spec, "@")
	trial = -1
	if scoped {
		trial, err = strconv.Atoi(rest)
		if err != nil || trial < 0 {
			return "", -1, fmt.Errorf("exp: bad inject trial in %q", spec)
		}
	}
	switch kind {
	case injectPanic, injectInvariant, injectSpin:
		return kind, trial, nil
	}
	return "", -1, fmt.Errorf("exp: unknown inject kind %q (have %s, %s, %s)",
		kind, injectPanic, injectInvariant, injectSpin)
}

// injectFor resolves the config's Inject spec for one trial index.
func (c Config) injectFor(trial int) (kind string, ok bool) {
	kind, target, err := parseInject(c.Inject)
	if err != nil || kind == "" {
		return "", false
	}
	if target >= 0 && target != trial {
		return "", false
	}
	return kind, true
}

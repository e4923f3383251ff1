package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/qoe"
	"voxel/internal/repro"
	"voxel/internal/trace"
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

// ReplayCommand returns a copy-pasteable voxel-sim invocation that
// deterministically reproduces the failing sweep (the failure fires at the
// same trial index, since trials are independent worlds keyed by seed).
func (e *TrialError) ReplayCommand() string {
	var b strings.Builder
	b.WriteString("go run ./cmd/voxel-sim")
	c := e.Config
	add := func(flag, val string) { b.WriteString(" -" + flag + " " + val) }
	if c.Title != "" {
		add("title", c.Title)
	}
	if c.System != "" {
		add("system", "'"+string(c.System)+"'")
	}
	if c.CrossTraffic > 0 {
		add("cross", strconv.FormatFloat(c.CrossTraffic/1e6, 'g', -1, 64))
	} else if c.Trace != nil {
		add("trace", traceFlagName(c.Trace))
	}
	add("buffer", strconv.Itoa(c.BufferSegments))
	if c.Segments > 0 {
		add("segments", strconv.Itoa(c.Segments))
	}
	add("trials", strconv.Itoa(c.Trials))
	add("seed", strconv.FormatInt(c.Seed, 10))
	if c.QueuePackets > 0 && c.QueuePackets != 32 {
		add("queue", strconv.Itoa(c.QueuePackets))
	}
	if c.Sessions > 1 {
		add("sessions", strconv.Itoa(c.Sessions))
	}
	if c.Impairment != "" {
		add("impair", c.Impairment)
	}
	if c.Failover {
		b.WriteString(" -failover")
	}
	if c.Inject != "" {
		add("inject", c.Inject)
	}
	if c.Invariants {
		b.WriteString(" -invariants")
	}
	return b.String()
}

// Artifact converts the failure into a standalone JSON crash artifact,
// replayable with `voxel-sim -repro file.json`.
func (e *TrialError) Artifact() *repro.Artifact {
	c := e.Config
	a := &repro.Artifact{
		Title:      c.Title,
		System:     string(c.System),
		Buffer:     c.BufferSegments,
		Segments:   c.Segments,
		Trials:     c.Trials,
		Trial:      e.Trial,
		Seed:       c.Seed,
		Queue:      c.QueuePackets,
		CrossMbps:  c.CrossTraffic / 1e6,
		LinkMbps:   c.LinkCapacity / 1e6,
		Sessions:   c.Sessions,
		Impairment: c.Impairment,
		Failover:   c.Failover,
		CC:         c.CC,
		Inject:     c.Inject,
		Violation:  e.Rule,
		Detail:     e.Msg,
	}
	if c.Trace != nil && c.CrossTraffic <= 0 {
		a.Trace = traceFlagName(c.Trace)
	}
	if c.Metric != qoe.SSIM {
		a.Metric = strings.ToLower(c.Metric.String())
	}
	if c.MaxSimTime > 0 {
		a.MaxSimTimeSec = c.MaxSimTime.Seconds()
	}
	return a
}

// traceFlagName names a trace the way -trace and artifact files expect:
// the canonical ByName key when there is one, the internal name otherwise
// (a non-canonical trace can't round-trip through a flag, but at least the
// command identifies it).
func traceFlagName(t *trace.Trace) string {
	if name, ok := trace.CanonicalName(t); ok {
		return name
	}
	return t.Name()
}

// ConfigFromArtifact resolves a crash artifact back into a runnable
// configuration. Invariants and both watchdog budgets are armed, matching
// the fuzz campaign the artifact came from.
func ConfigFromArtifact(a *repro.Artifact) (Config, error) {
	cfg := Config{
		Title:          a.Title,
		System:         System(a.System),
		BufferSegments: a.Buffer,
		Segments:       a.Segments,
		Trials:         a.Trials,
		Seed:           a.Seed,
		QueuePackets:   a.Queue,
		CrossTraffic:   a.CrossMbps * 1e6,
		LinkCapacity:   a.LinkMbps * 1e6,
		Sessions:       a.Sessions,
		Impairment:     a.Impairment,
		Failover:       a.Failover,
		CC:             a.CC,
		Inject:         a.Inject,
		Invariants:     true,
		WatchdogWall:   DefaultWatchdogWall,
		WatchdogEvents: DefaultWatchdogEvents,
	}
	if a.MaxSimTimeSec > 0 {
		cfg.MaxSimTime = time.Duration(a.MaxSimTimeSec * float64(time.Second))
	}
	if a.Trace != "" {
		tr, err := trace.ByName(a.Trace)
		if err != nil {
			return Config{}, fmt.Errorf("exp: artifact trace: %v", err)
		}
		cfg.Trace = tr
	}
	switch strings.ToLower(a.Metric) {
	case "", "ssim":
		cfg.Metric = qoe.SSIM
	case "vmaf":
		cfg.Metric = qoe.VMAF
	case "psnr":
		cfg.Metric = qoe.PSNR
	default:
		return Config{}, fmt.Errorf("exp: artifact metric %q unknown", a.Metric)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Default watchdog budgets used by repro replay and the fuzz campaign: lax
// enough for the heaviest legitimate trial (a 512-session swarm runs in
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
// aggregates folded by MergeShards — never fire it; whoever ran them already
// did. CLIs that drive many sweeps through layers that do not surface
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
		te.Rule = v.Rule
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

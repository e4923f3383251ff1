package exp

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/trace"
)

func failCfg() Config {
	return Config{
		Title:    "BBB",
		Trace:    trace.Verizon(),
		Segments: 6,
		Trials:   4,
	}
}

// The acceptance scenario: one deliberately panicking trial inside a
// 16-trial parallel sweep must surface as exactly one TrialError — with
// stack, seed, and replay command — while the other 15 trials complete
// normally and the process never crashes.
func TestPanicIsolation16Trials(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 16
	cfg.Parallelism = 4
	cfg.Inject = "panic@5"
	agg := Run(cfg)

	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(agg.Failed), agg.Failed)
	}
	te := &agg.Failed[0]
	if te.Trial != 5 {
		t.Fatalf("failed trial = %d, want 5", te.Trial)
	}
	if te.Rule != "panic" || !strings.Contains(te.Msg, "injected fault") {
		t.Fatalf("wrong classification: rule=%q msg=%q", te.Rule, te.Msg)
	}
	if te.Seed != TrialSeed(1, 5) {
		t.Fatalf("seed = %d, want %d", te.Seed, TrialSeed(1, 5))
	}
	if !strings.Contains(te.Stack, "runTrial") {
		t.Fatalf("stack missing runTrial:\n%s", te.Stack)
	}
	if a := replayArtifact(t, te.ReplayCommand()); a.Trial != 5 || a.Violation != "panic" ||
		a.Spec != cfg.Spec() {
		t.Fatalf("replay command carries %+v, want trial 5 of %+v", a, cfg.Spec())
	}

	if len(agg.Trials) != 16 {
		t.Fatalf("aggregate has %d trial slots, want 16", len(agg.Trials))
	}
	completed := 0
	for ti, tr := range agg.Trials {
		if ti == 5 {
			if !tr.Failed {
				t.Fatal("trial 5 not marked failed")
			}
			continue
		}
		if tr.Failed {
			t.Fatalf("surviving trial %d marked failed", ti)
		}
		if !tr.Completed || len(tr.Scores) == 0 {
			t.Fatalf("surviving trial %d incomplete (completed=%v, %d scores)",
				ti, tr.Completed, len(tr.Scores))
		}
		completed++
	}
	if completed != 15 {
		t.Fatalf("%d trials completed, want 15", completed)
	}
	// Failed trials contribute no metric samples.
	if len(agg.BufRatios) != 15 || len(agg.Bitrates) != 15 {
		t.Fatalf("metric samples %d/%d, want 15/15", len(agg.BufRatios), len(agg.Bitrates))
	}
}

// A failure inside one trial is invisible to the others: the surviving
// trials of an injected sweep produce bit-identical results to a clean
// sweep's corresponding trials.
func TestSurvivorsUnperturbed(t *testing.T) {
	clean := Run(failCfg())
	cfg := failCfg()
	cfg.Inject = "panic@2"
	injected := Run(cfg)
	for ti := range clean.Trials {
		if ti == 2 {
			continue
		}
		if !reflect.DeepEqual(clean.Trials[ti], injected.Trials[ti]) {
			t.Fatalf("trial %d differs between clean and injected sweeps", ti)
		}
	}
}

// Arming the invariant checker on a healthy run must not change a single
// bit of the results — checking is observation, never perturbation.
func TestInvariantsAreTransparent(t *testing.T) {
	base := failCfg()
	base.Trials = 2
	clean := Run(base)
	armed := base
	armed.Invariants = true
	checked := Run(armed)
	if len(checked.Failed) != 0 {
		t.Fatalf("invariants fired on a healthy run: %+v", checked.Failed)
	}
	if !reflect.DeepEqual(clean.Trials, checked.Trials) {
		t.Fatal("invariant checking perturbed trial results")
	}
}

// TestWitnessExpInjectedFault: Config.Inject's invariant fault fires at its
// instant as an exp.injected-fault violation, which the trial boundary turns
// into the failure's rule.
func TestWitnessExpInjectedFault(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 1
	cfg.Inject = "invariant"
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	te := &agg.Failed[0]
	if want := invariant.ExpInjectedFault.String(); te.Rule != want {
		t.Fatalf("rule = %q, want %s", te.Rule, want)
	}
	if te.Clock != 2*time.Second {
		t.Fatalf("clock = %v, want the 2s injection instant", te.Clock)
	}
	if te.Session != -1 {
		t.Fatalf("session = %d, want -1 (mid-run failure)", te.Session)
	}
}

// The event budget is the only defense against a zero-delay event storm:
// virtual time freezes while events burn, so neither MaxSimTime nor the
// interrupt checkpoints ever trigger.
func TestWatchdogEventBudgetCatchesSpin(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 2
	cfg.Inject = "spin@1"
	cfg.WatchdogEvents = 300_000
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	te := &agg.Failed[0]
	if te.Rule != "watchdog.event-budget" || te.Trial != 1 {
		t.Fatalf("got rule=%q trial=%d, want watchdog.event-budget trial 1", te.Rule, te.Trial)
	}
	if !agg.Trials[0].Completed {
		t.Fatal("healthy trial 0 did not complete")
	}
}

func TestWatchdogWallBudgetCatchesSpin(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 1
	cfg.Inject = "spin"
	cfg.WatchdogWall = 50 * time.Millisecond
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	if rule := agg.Failed[0].Rule; rule != "watchdog.wall-budget" {
		t.Fatalf("rule = %q, want watchdog.wall-budget", rule)
	}
}

// The watchdog's sliced run loop must execute the exact same events as one
// RunUntil when nothing breaches, leaving results bit-identical.
func TestWatchdogTransparentWhenUnderBudget(t *testing.T) {
	base := failCfg()
	base.Trials = 2
	clean := Run(base)
	guarded := base
	guarded.WatchdogWall = time.Hour
	guarded.WatchdogEvents = 1 << 40
	agg := Run(guarded)
	if len(agg.Failed) != 0 {
		t.Fatalf("watchdog fired under budget: %+v", agg.Failed)
	}
	if !reflect.DeepEqual(clean.Trials, agg.Trials) {
		t.Fatal("watchdog slicing perturbed trial results")
	}
}

// A failure's artifact names the failing trial and rule, and resolves back
// to exactly the cell that failed — nothing re-armed, nothing dropped.
func TestArtifactRoundTrip(t *testing.T) {
	cfg := failCfg()
	cfg.Trials = 2
	cfg.Impairment = "flaky-wifi"
	cfg.Inject = "invariant@1"
	agg := Run(cfg)
	if len(agg.Failed) != 1 {
		t.Fatalf("got %d failures, want 1", len(agg.Failed))
	}
	a := agg.Failed[0].Artifact()
	if a.Violation != "exp.injected-fault" || a.Trial != 1 || a.Spec.TraceCanonical != "verizon" ||
		a.Detail != agg.Failed[0].Msg {
		t.Fatalf("artifact fields wrong: %+v", a)
	}
	got, err := a.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if want := agg.Failed[0].Config.Normalized(); !reflect.DeepEqual(got, want) {
		t.Fatalf("config round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidateRejectsBadInject(t *testing.T) {
	for _, spec := range []string{"explode", "panic@-1", "panic@x", "@3"} {
		cfg := Config{Inject: spec}
		if err := cfg.Validate(); err == nil {
			t.Fatalf("inject %q accepted", spec)
		}
	}
	for _, spec := range []string{"", "panic", "invariant@0", "spin@12"} {
		cfg := Config{Inject: spec}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("inject %q rejected: %v", spec, err)
		}
	}
}

// A negative trial count used to reach make() in the run loop and panic,
// and an unknown congestion controller silently ran CUBIC.
func TestValidateRejectsBadTrialsAndCC(t *testing.T) {
	for _, cfg := range []Config{{Trials: -1}, {CC: "reno"}, {CC: "BBR"}} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
	}
	for _, cfg := range []Config{{}, {Trials: 3}, {CC: "cubic"}, {CC: "bbr"}} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v rejected: %v", cfg, err)
		}
	}
}

// Telemetry exports of a sweep with a failed trial stay byte-deterministic
// across worker counts, and the failed trial appears as an explicit marker
// (CSV failed column, JSONL trial_failed event) instead of a silent gap.
func TestFailedTrialTelemetryExports(t *testing.T) {
	render := func(parallelism int) (csv, jsonl string) {
		cfg := failCfg()
		cfg.Telemetry = true
		cfg.Inject = "panic@1"
		cfg.Parallelism = parallelism
		agg := Run(cfg)
		var c, j bytes.Buffer
		if err := agg.Obs.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := agg.Obs.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String()
	}
	csv1, jsonl1 := render(1)
	csv4, jsonl4 := render(4)
	if csv1 != csv4 {
		t.Fatal("CSV export differs across parallelism")
	}
	if jsonl1 != jsonl4 {
		t.Fatal("JSONL export differs across parallelism")
	}
	rows := strings.Split(strings.TrimRight(csv1, "\n"), "\n")
	if len(rows) != 1+4+1 { // header + 4 trials + total
		t.Fatalf("CSV has %d rows, want 6:\n%s", len(rows), csv1)
	}
	if !strings.HasSuffix(rows[0], ",failed") {
		t.Fatalf("CSV header missing failed column: %s", rows[0])
	}
	if !strings.HasPrefix(rows[2], "1,0,") || !strings.HasSuffix(rows[2], ",1") {
		t.Fatalf("failed trial row not marked: %s", rows[2])
	}
	if !strings.HasSuffix(rows[5], ",1") {
		t.Fatalf("total row failed count wrong: %s", rows[5])
	}
	if !strings.Contains(jsonl1, `"kind":"trial_failed"`) {
		t.Fatal("JSONL missing trial_failed event")
	}
}

// hooked runs fn with FailureHook recording (system, trial) of every call.
func hooked(fn func()) []string {
	var got []string
	FailureHook = func(te *TrialError) {
		got = append(got, string(te.Config.System)+"/"+strconv.Itoa(te.Trial))
	}
	defer func() { FailureHook = nil }()
	fn()
	return got
}

// FailureHook's contract: exactly once per failing trial this process
// computed, in trial order at any parallelism — and never from a fold of
// results computed elsewhere.
func TestFailureHookContract(t *testing.T) {
	base := failCfg()
	base.Trials = 6
	base.Inject = "panic" // every trial fails, so ordering has something to order
	for _, par := range []int{1, 4} {
		base.Parallelism = par

		var agg *Aggregate
		got := hooked(func() { agg = Run(base) })
		want := []string{"VOXEL/0", "VOXEL/1", "VOXEL/2", "VOXEL/3", "VOXEL/4", "VOXEL/5"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: Run fired %v, want %v", par, got, want)
		}

		// Folding finished results is silent: the run that computed them
		// already reported. (Merges fold through Assemble too;
		// TestFailureHookThroughSweep holds them to the same rule.)
		got = hooked(func() {
			fails := make([]*TrialError, len(agg.Failed))
			for i := range agg.Failed {
				fails[i] = &agg.Failed[i]
			}
			Assemble(base, agg.Trials, fails)
		})
		if got != nil {
			t.Fatalf("parallel=%d: a pure fold fired the hook: %v", par, got)
		}
	}

	// A sharded run reports its own failing trials only.
	base.ShardIndex, base.ShardCount = 1, 2
	if got, want := hooked(func() { Run(base) }), []string{"VOXEL/1", "VOXEL/3", "VOXEL/5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shard 1/2 fired %v, want %v", got, want)
	}
}

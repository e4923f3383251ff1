package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/qoe"
	"voxel/internal/trace"
)

// fullCfg sets every Config field, so a perturbation of any one of them
// cannot be lost to defaulting; altCfg differs from it in every field and
// is just as valid.
func fullCfg() Config {
	return Config{
		Title: "BBB", System: SysVoxel, BufferSegments: 3, Trace: trace.TMobile(),
		QueuePackets: 40, Trials: 6, Metric: qoe.VMAF, Segments: 6, CrossTraffic: 1e6, LinkCapacity: 2e7,
		Seed: 11, MaxSimTime: time.Minute, CC: "bbr", Impairment: "bursty", Failover: true,
		Parallelism: 2, Telemetry: true, TimelineCap: 64, Interrupt: make(chan struct{}),
		Sessions: 2, Invariants: true, WatchdogWall: time.Minute, WatchdogEvents: 1000,
		Inject: "panic@1", ShardIndex: 1, ShardCount: 2,
	}
}

func altCfg() Config {
	return Config{
		Title: "ToS", System: SysBeta, BufferSegments: 4, Trace: trace.Verizon(),
		QueuePackets: 41, Trials: 7, Metric: qoe.PSNR, Segments: 7, CrossTraffic: 2e6, LinkCapacity: 12e6,
		Seed: 12, MaxSimTime: time.Hour, CC: "cubic", Impairment: "flaky-wifi", Failover: false,
		Parallelism: 3, Telemetry: false, TimelineCap: 65, Interrupt: make(chan struct{}),
		Sessions: 3, Invariants: false, WatchdogWall: time.Hour, WatchdogEvents: 1001,
		Inject: "spin@2", ShardIndex: 0, ShardCount: 3,
	}
}

// Spec, Config.Spec and Spec.Config spell out Config's field list by hand —
// in one file, but by hand. A field added to Config and not to them would
// silently drop out of the fingerprint (resume and merge would mix
// experiments) and out of every crash artifact (replay would run a
// different cell). So every field must either be cleared by Normalized()
// (execution-only) or, when perturbed, change the fingerprint, survive
// Spec().Config(), and survive the artifact's encode → decode → Config().
func TestSpecCoversConfig(t *testing.T) {
	base, alt := fullCfg(), altCfg()
	baseFP := base.Spec().Fingerprint()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		from, to := reflect.ValueOf(base).Field(i), reflect.ValueOf(alt).Field(i)
		if from.IsZero() || reflect.DeepEqual(from.Interface(), to.Interface()) {
			t.Fatalf("%s: fullCfg must set it and altCfg must change it", name)
		}
		p := base
		reflect.ValueOf(&p).Elem().Field(i).Set(to)
		want := reflect.ValueOf(p.Normalized()).Field(i).Interface()
		if reflect.DeepEqual(want, reflect.ValueOf(base.Normalized()).Field(i).Interface()) {
			continue // execution-only: Normalized() clears it
		}
		sp := p.Spec()
		if sp.Fingerprint() == baseFP {
			t.Errorf("%s changes results but not the fingerprint", name)
		}
		back, err := sp.Config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reflect.ValueOf(back).Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s does not survive Spec().Config(): got %v, want %v", name, got, want)
		}
		b, err := (&TrialError{Config: p, Trial: 1, Rule: "panic"}).Artifact().Encode()
		if err != nil {
			t.Fatal(err)
		}
		a, err := DecodeArtifact(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back, err = a.Spec.Config(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reflect.ValueOf(back).Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s does not survive the artifact: got %v, want %v", name, got, want)
		}
	}
}

// The Spec's JSON and fingerprint are the checkpoint file format (version
// 1). These literals were computed with sweep's identityOf at the commit
// before Spec existed: equal bytes here mean old files still load, resume
// and merge.
func TestSpecBytesPinned(t *testing.T) {
	const wantJSON = `{"title":"BBB","system":"VOXEL","buffer_segments":3,"trace_name":"tmobile-lte","trace_hash":"e670294fc866ed856c0d07876a4727603b4d0f297a7f1fed17b3fa6742755bf8","trace_canonical":"tmobile","queue_packets":40,"trials":6,"metric":1,"segments":6,"cross_traffic":1000000,"link_capacity":20000000,"seed":11,"max_sim_time_ns":60000000000,"cc":"bbr","impairment":"bursty","failover":true,"telemetry":true,"timeline_cap":64,"sessions":2,"invariants":true,"watchdog_wall_ns":60000000000,"watchdog_events":1000,"inject":"panic@1"}`
	const wantFP = "32f07e3f42b12fa2e7763970ef03da0b6ba77e939414994096572e384dcd11f9"
	sp := fullCfg().Spec()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != wantJSON {
		t.Errorf("Spec JSON changed:\n got %s\nwant %s", b, wantJSON)
	}
	if fp := sp.Fingerprint(); fp != wantFP {
		t.Errorf("fingerprint = %s, want %s", fp, wantFP)
	}
}

// A trace outside the canonical set cannot be rebuilt from a file, and a
// canonical name whose samples no longer hash to the recorded value is a
// different experiment.
func TestSpecConfigTraceErrors(t *testing.T) {
	sp := Config{Title: "BBB", Trace: trace.Constant("flat", 5e6, 60)}.Spec()
	if _, err := sp.Config(); err == nil || !strings.Contains(err.Error(), "no canonical name") {
		t.Fatalf("non-canonical trace: err = %v", err)
	}
	sp = Config{Title: "BBB", Trace: trace.Verizon()}.Spec()
	sp.TraceHash = strings.Repeat("0", 64)
	if _, err := sp.Config(); err == nil || !strings.Contains(err.Error(), "stored hash") {
		t.Fatalf("forged hash: err = %v", err)
	}
}

func sampleArtifact() *Artifact {
	cfg := Config{Title: "BBB", Trace: trace.Verizon(), Segments: 6, Trials: 2, Seed: 4242, Impairment: "flaky-wifi"}
	return (&TrialError{Config: cfg, Trial: 1, Rule: invariant.QuicByteConservation.String(),
		Msg: "sent 100 B != acked 90 B + lost 0 B + inflight 0 B"}).Artifact()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := sampleArtifact()
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
	// Stable bytes: encoding the decoded artifact reproduces the file.
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("encoding not stable:\n%s\nvs\n%s", b, b2)
	}
	if b[len(b)-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
}

// Unknown fields mean a typo'd hand edit would silently change the repro;
// reject them loudly instead — at either level, and the flat layout of
// artifacts written before Spec with a pointer to the new one.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"spec":{"title":"BBB"},"trial":0,"voilation":"panic"}`,
		`{"spec":{"title":"BBB","sead":7},"trial":0}`,
		`{"title":"BBB","system":"VOXEL","trace":"verizon","segments":6,"trials":1,"trial":0,"seed":1}`,
	} {
		_, err := DecodeArtifact([]byte(in))
		if err == nil || !strings.Contains(err.Error(), `{"spec": `) {
			t.Errorf("%s: err = %v, want a rejection naming the layout", in, err)
		}
	}
}

func TestDecodeRequiresTitle(t *testing.T) {
	for _, in := range []string{`{"trial":0}`, `{"spec":{"seed":7},"trial":0}`} {
		if _, err := DecodeArtifact([]byte(in)); err == nil {
			t.Errorf("%s: artifact without a title accepted", in)
		}
	}
}

// Zero-valued knobs stay off disk so shrunk artifacts read minimally.
func TestEncodeOmitsDefaults(t *testing.T) {
	b, err := (&Artifact{Spec: Spec{Title: "BBB"}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"impairment", "failover", "cc", "sessions", "inject", "trace", "violation", "detail"} {
		if bytes.Contains(b, []byte(field)) {
			t.Fatalf("zero-valued %q serialized:\n%s", field, b)
		}
	}
}

// replayArtifact extracts and decodes the artifact a replay line pipes to
// voxel-sim.
func replayArtifact(t *testing.T, cmd string) *Artifact {
	t.Helper()
	js, ok := strings.CutPrefix(cmd, "echo '")
	js, ok2 := strings.CutSuffix(js, "' | go run ./cmd/voxel-sim -repro -")
	if !ok || !ok2 {
		t.Fatalf("replay command has an unexpected shape: %s", cmd)
	}
	a, err := DecodeArtifact([]byte(js))
	if err != nil {
		t.Fatalf("%v\n%s", err, cmd)
	}
	return a
}

// The replay line carries the whole cell: whatever Config field made the
// trial what it was — the flag-list form dropped metric, congestion
// controller, link capacity and the virtual-time bound — the command
// rebuilds the failing config exactly and fails by the same rule at the
// same trial.
func TestReplayCommandLossless(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"metric+cc", func(c *Config) { c.Metric, c.CC = qoe.VMAF, "bbr" }},
		{"link capacity", func(c *Config) { c.Trace, c.CrossTraffic, c.LinkCapacity = nil, 2e6, 12e6 }},
		{"max sim time", func(c *Config) { c.MaxSimTime = 90 * time.Second }},
		{"swarm under failover", func(c *Config) { c.Sessions, c.Impairment, c.Failover = 3, "bursty", true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Title: "BBB", Trace: trace.Verizon(), Segments: 4, Trials: 2,
				Parallelism: 2, Inject: "invariant@1"}
			tc.set(&cfg)
			agg := Run(cfg)
			if len(agg.Failed) != 1 {
				t.Fatalf("got %d failures, want 1", len(agg.Failed))
			}
			te := &agg.Failed[0]
			a := replayArtifact(t, te.ReplayCommand())
			if a.Trial != te.Trial || a.Violation != te.Rule {
				t.Fatalf("artifact names trial %d rule %q, failure was trial %d rule %q",
					a.Trial, a.Violation, te.Trial, te.Rule)
			}
			back, err := a.Spec.Config()
			if err != nil {
				t.Fatal(err)
			}
			if want := te.Config.Normalized(); !reflect.DeepEqual(back, want) {
				t.Fatalf("replay rebuilds a different cell:\n got %+v\nwant %+v", back, want)
			}
			again := Run(back)
			if len(again.Failed) != 1 || again.Failed[0].Trial != te.Trial || again.Failed[0].Rule != te.Rule {
				t.Fatalf("replay failed differently: %+v", again.Failed)
			}
		})
	}
}

// A single quote in the one caller-supplied string must not end the shell
// word early.
func TestReplayCommandQuotes(t *testing.T) {
	te := &TrialError{Config: Config{Title: "BBB", Trace: trace.MustNew("bob's trace", []float64{1e6})}, Rule: "panic"}
	cmd := te.ReplayCommand()
	if !strings.Contains(cmd, `bob'\''s trace`) {
		t.Fatalf("single quote not escaped: %s", cmd)
	}
}

// FuzzArtifact: the one decoder never panics, and whatever it accepts
// re-encodes to bytes that decode to an equal value and resolves to a
// Config that passes Validate — or to a clean error.
func FuzzArtifact(f *testing.F) {
	committed, err := os.ReadFile("../../testdata/repro/injected-invariant.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	b, _ := sampleArtifact().Encode()
	f.Add(b)
	f.Add([]byte(`{"spec":{"title":"BBB","trials":-1,"cc":"reno"},"trial":0}`))
	f.Add([]byte(`{"title":"BBB","trial":0}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := DecodeArtifact(in)
		if err != nil {
			return
		}
		out, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		again, err := DecodeArtifact(out)
		if err != nil || *again != *a {
			t.Fatalf("re-encode changed the artifact (err %v):\n got %+v\nwant %+v", err, again, a)
		}
		if cfg, err := a.Spec.Config(); err == nil {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Spec.Config returned an invalid config: %v", err)
			}
		}
	})
}

package voxel

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The System default (VOXEL) is applied uniformly by the experiment layer,
// for both execution paths: a plain Session run and one routed through the
// sweep engine by WithCheckpoint.
func TestDefaultSystemUniform(t *testing.T) {
	a, rep, err := New("BBB", WithTrials(1), WithSegments(3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatal("telemetry report without WithTelemetry")
	}
	b, _, err := New("BBB", WithTrials(1), WithSegments(3),
		WithCheckpoint(filepath.Join(t.TempDir(), "ck.json"), 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.System != VOXEL || b.Config.System != VOXEL {
		t.Fatalf("default system = %q / %q, want %q",
			a.Config.System, b.Config.System, VOXEL)
	}
	if !reflect.DeepEqual(a.Trials, b.Trials) {
		t.Fatal("defaulted runs diverge between the plain and checkpointed paths")
	}
}

func TestSessionTypedErrors(t *testing.T) {
	if _, _, err := New("NotATitle").Run(); !errors.Is(err, ErrUnknownTitle) {
		t.Fatalf("unknown title: got %v, want ErrUnknownTitle", err)
	}
	if _, _, err := New("").Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("missing title: got %v, want ErrInvalidConfig", err)
	}
	if _, _, err := New("BBB", WithTraceName("nope")).Run(); !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("unknown trace: got %v, want ErrUnknownTrace", err)
	}
	if _, _, err := New("BBB", WithImpairment("hurricane")).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("unknown impairment: got %v, want ErrInvalidConfig", err)
	}
	if _, _, err := New("BBB", WithShard(4, 4)).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("shard index out of range: got %v, want ErrInvalidConfig", err)
	}
	if _, _, err := New("BBB", WithShard(1, 0)).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("shard index without count: got %v, want ErrInvalidConfig", err)
	}
	if _, _, err := New("BBB", WithCC("reno")).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("unknown congestion controller: got %v, want ErrInvalidConfig", err)
	}
	if _, _, err := New("BBB", WithTrials(-1)).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative trials: got %v, want ErrInvalidConfig", err)
	}
	if _, err := LoadVideo("nope"); !errors.Is(err, ErrUnknownTitle) {
		t.Fatalf("LoadVideo: got %v, want ErrUnknownTitle", err)
	}
	if _, err := LoadTrace("nope"); !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("LoadTrace: got %v, want ErrUnknownTrace", err)
	}
}

// A negative count, rate or bound fails Run with ErrInvalidConfig instead
// of being read as a default (a 7-segment buffer, the full clip) or as
// nothing (a trial that runs no events), one row per field.
func TestSessionRejectsNegativeValues(t *testing.T) {
	for _, tc := range []struct {
		field string
		opt   Option
	}{
		{"trials", WithTrials(-1)},
		{"buffer segments", WithBuffer(-2)},
		{"queue packets", WithQueue(-1)},
		{"segments", WithSegments(-5)},
		{"cross traffic", WithCrossTraffic(-1e6, 20e6)},
		{"link capacity", WithCrossTraffic(5e6, -20e6)},
		{"max sim time", WithMaxSimTime(-time.Second)},
		{"watchdog wall budget", WithWatchdog(-time.Second, 0)},
		{"timeline cap", WithTimelineCap(-1)},
	} {
		_, _, err := New("BBB", WithTrials(1), WithSegments(2), tc.opt).Run()
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), tc.field+" -") {
			t.Errorf("negative %s: got %v, want ErrInvalidConfig naming it", tc.field, err)
		}
	}
}

func TestSessionTelemetryReport(t *testing.T) {
	agg, rep, err := New("BBB",
		WithTraceName("tmobile"),
		WithBuffer(1),
		WithTrials(1),
		WithSegments(6),
		WithImpairment("bursty"),
		WithTelemetry(),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(rep.Trials) != 1 {
		t.Fatal("WithTelemetry did not yield a report")
	}
	if rep != agg.Obs {
		t.Fatal("returned report is not the aggregate's")
	}
	if len(rep.Trials[0].Events) == 0 {
		t.Fatal("telemetry report has no timeline events")
	}
}

func TestSessionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	agg, _, err := New("BBB", WithTrials(2), WithSegments(3), WithContext(ctx)).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if agg != nil {
		t.Fatal("pre-cancelled context should not run any trial")
	}
}

func TestClipFromAggregateEmptyGuard(t *testing.T) {
	for _, a := range []*Aggregate{nil, {}, {Trials: make([]Trial, 0)}} {
		c := ClipFromAggregate(a)
		if c != (Clip{}) {
			t.Fatalf("empty aggregate should give zero clip, got %+v", c)
		}
	}
	// The zero clip flows through RunSurvey without NaN poisoning.
	b, v := PaperClips()
	out := RunSurvey(10, 1, b, v)
	if out.PreferB != out.PreferB { // NaN check
		t.Fatal("survey outcome is NaN")
	}
	empty := RunSurvey(10, 1, ClipFromAggregate(nil), ClipFromAggregate(&Aggregate{}))
	if empty.PreferB != empty.PreferB {
		t.Fatal("empty-clip survey outcome is NaN")
	}
}

// The public sharding surface end to end: shard Sessions, merge with
// MergeAggregates, land exactly on the unsharded run.
func TestSessionShardMerge(t *testing.T) {
	build := func(opts ...Option) *Session {
		base := []Option{WithTraceName("tmobile"), WithTrials(4),
			WithSegments(4), WithTelemetry()}
		return New("BBB", append(base, opts...)...)
	}
	whole, _, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	var shards []*Aggregate
	for i := 0; i < 2; i++ {
		agg, _, err := build(WithShard(i, 2), WithParallelism(2)).Run()
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, agg)
	}
	merged, err := MergeAggregates(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Fatal("MergeAggregates does not reproduce the unsharded session run")
	}
	if _, err := MergeAggregates(shards[:1]); err == nil {
		t.Fatal("incomplete shard set must not merge")
	}
}

// WithCheckpoint: a rerun restores from the file and reproduces the same
// aggregate; a mismatched config refuses the file.
func TestSessionCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	build := func(opts ...Option) *Session {
		base := []Option{WithTraceName("tmobile"), WithTrials(3), WithSegments(4)}
		return New("BBB", append(base, opts...)...)
	}
	plain, _, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := build(WithCheckpoint(path, 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, err := build(WithCheckpoint(path, 1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, plain) || !reflect.DeepEqual(resumed, plain) {
		t.Fatal("checkpointed/resumed aggregates differ from the plain run")
	}
	if _, _, err := build(WithSeed(99), WithCheckpoint(path, 1)).Run(); err == nil {
		t.Fatal("checkpoint from a different config must be refused")
	}
}

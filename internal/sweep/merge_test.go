package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"voxel/internal/exp"
)

// MergeFiles on a complete classic shard set reproduces the unsharded
// campaign — and its -out file is byte-identical to the checkpoint a
// single uninterrupted process writes.
func TestMergeFilesByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.Telemetry = true // exercise report stamping through the file format

	whole := filepath.Join(dir, "whole.json")
	res, err := Run(cfg, Options{Checkpoint: whole})
	if err != nil {
		t.Fatal(err)
	}
	wholeBytes, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}

	var files []string
	for i := 0; i < 2; i++ {
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = i, 2
		scfg.Parallelism = 2
		p := filepath.Join(dir, "shard"+string(rune('0'+i))+".json")
		if _, err := Run(scfg, Options{Checkpoint: p}); err != nil {
			t.Fatal(err)
		}
		files = append(files, p)
	}

	// Argument order must not matter.
	m, err := MergeFiles([]string{files[1], files[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Agg, res.Agg) {
		t.Fatal("merged aggregate differs from the unsharded run")
	}
	merged := filepath.Join(dir, "merged.json")
	if err := m.WriteFile(merged); err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, wholeBytes) {
		t.Fatal("merged checkpoint bytes differ from the single-process file")
	}

	// A lone unsharded file merges to itself, byte for byte.
	self, err := MergeFiles([]string{whole})
	if err != nil {
		t.Fatal(err)
	}
	round := filepath.Join(dir, "round.json")
	if err := self.WriteFile(round); err != nil {
		t.Fatal(err)
	}
	roundBytes, err := os.ReadFile(round)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(roundBytes, wholeBytes) {
		t.Fatal("unsharded file does not round-trip byte-identically through MergeFiles")
	}
}

// Streaming shard files merge to the unsharded streaming aggregate on
// every statistic the sketch pins (counts, min/max, quantiles); the merged
// file itself is deterministic across merge invocations.
func TestMergeFilesStream(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()

	whole := filepath.Join(dir, "whole.json")
	res, err := Run(cfg, Options{Checkpoint: whole, Stream: true})
	if err != nil {
		t.Fatal(err)
	}

	var files []string
	for i := 0; i < 2; i++ {
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = i, 2
		p := filepath.Join(dir, "shard"+string(rune('0'+i))+".json")
		if _, err := Run(scfg, Options{Checkpoint: p, Stream: true}); err != nil {
			t.Fatal(err)
		}
		files = append(files, p)
	}

	m, err := MergeFiles([]string{files[1], files[0]})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stream == nil || m.Agg != nil {
		t.Fatal("stream merge should produce a StreamAgg, not an Aggregate")
	}
	got, want := m.Stream, res.Stream
	if got.Trials != want.Trials || got.Failed != want.Failed || got.Scores != want.Scores {
		t.Fatalf("merged counters %d/%d/%d, want %d/%d/%d",
			got.Trials, got.Failed, got.Scores, want.Trials, want.Failed, want.Scores)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got.BufRatio.Quantile(q) != want.BufRatio.Quantile(q) ||
			got.Bitrate.Quantile(q) != want.Bitrate.Quantile(q) ||
			got.Score.Quantile(q) != want.Score.Quantile(q) {
			t.Fatalf("merged quantile q=%v differs from the unsharded sketch", q)
		}
	}

	// Two merges of the same files write the same bytes.
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := m.WriteFile(a); err != nil {
		t.Fatal(err)
	}
	m2, err := MergeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteFile(b); err != nil {
		t.Fatal(err)
	}
	ab, _ := os.ReadFile(a)
	bb, _ := os.ReadFile(b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("merging the same shard files twice wrote different bytes")
	}
}

func TestMergeFilesErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()

	shardFile := func(name string, scfg exp.Config, stream bool) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if _, err := Run(scfg, Options{Checkpoint: p, Stream: stream}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s0 := cfg
	s0.ShardIndex, s0.ShardCount = 0, 2
	s1 := cfg
	s1.ShardIndex, s1.ShardCount = 1, 2
	other := s1
	other.Seed = 99
	f0 := shardFile("s0.json", s0, false)
	f1 := shardFile("s1.json", s1, false)
	whole := shardFile("whole.json", cfg, false)
	drift := shardFile("drift.json", other, false)
	stream0 := shardFile("stream0.json", s0, true)

	// Files are outside input: each of these is shard 1's good file with one
	// edit a torn write, a stray hand or another tool could have made.
	edited := func(name string, edit func(cp *Checkpoint)) string {
		t.Helper()
		cp, err := LoadCheckpoint(f1)
		if err != nil {
			t.Fatal(err)
		}
		edit(cp)
		p := filepath.Join(dir, name)
		if err := cp.WriteFile(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	shardOutOfRange := edited("shard-5-of-2.json", func(cp *Checkpoint) { cp.Shard = Shard{Index: 5, Count: 2} })
	doneTwice := edited("done-twice.json", func(cp *Checkpoint) { cp.Done = append(cp.Done, cp.Done[len(cp.Done)-1]) })
	doneNotOwned := edited("done-not-owned.json", func(cp *Checkpoint) { cp.Done[0]-- })
	recordMissing := edited("record-missing.json", func(cp *Checkpoint) { cp.Trials = cp.Trials[1:] })
	recordTwice := edited("record-twice.json", func(cp *Checkpoint) { cp.Trials[1] = cp.Trials[0] })
	// A forged config under a matching fingerprint: the file is plain data
	// until a Config is rebuilt from it, and that path validates.
	reforged := func(name string, edit func(sp *exp.Spec)) string {
		return edited(name, func(cp *Checkpoint) {
			edit(&cp.Config)
			cp.Fingerprint = cp.Config.Fingerprint()
		})
	}
	negTrials := reforged("neg-trials.json", func(sp *exp.Spec) { sp.Trials = -1 })
	unknownCC := reforged("unknown-cc.json", func(sp *exp.Spec) { sp.CC = "reno" })

	cases := []struct {
		name  string
		files []string
		want  string
	}{
		{"empty", nil, "no checkpoint files"},
		{"missing shard", []string{f0}, "hold 3 of 6 trials; trial 1 is the first missing"},
		{"duplicate shard", []string{f0, f0}, "s0.json (shard 0/2): trial 0 was already loaded"},
		{"extra file with unsharded", []string{whole, f0}, "s0.json (shard 0/2): trial 0 was already loaded"},
		{"fingerprint drift", []string{f0, drift}, "different experiment"},
		{"mode mix", []string{stream0, f1}, "mixes streaming and classic"},
		{"shard index out of range", []string{f0, shardOutOfRange}, "shard 5/2 is not i/n"},
		{"done trial repeated", []string{f0, doneTwice}, "not strictly increasing"},
		{"done trial of another shard", []string{f0, doneNotOwned}, "does not belong to shard 1/2"},
		{"done trial without a record", []string{f0, recordMissing}, "records cover trials [3 5], done trials are [1 3 5]"},
		{"record repeated", []string{f0, recordTwice}, "records cover trials [1 1 5], done trials are [1 3 5]"},
		{"negative trial count", []string{negTrials}, "config has -1 trials"},
		{"config that does not validate", []string{unknownCC}, `unknown congestion controller "reno"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeFiles(tc.files)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got err %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestMemoryAndFileMergesAgree: the two ways into a merge — shard checkpoint
// files (MergeFiles) and shard aggregates still in memory (MergeAggregates)
// — are one validation and one fold. Each shard below is run once, to its
// checkpoint file and its aggregate at the same time; every set must be
// refused by both merges with the same error (up to what they call a
// member), or merged by both to the same aggregate (failure stacks
// scrubbed, the trace compared by name: a file merge rebuilds it).
func TestMemoryAndFileMergesAgree(t *testing.T) {
	dir := t.TempDir()
	base := testCfg()
	base.Segments = 3
	telemetry, panicky, drift, long := base, base, base, base
	telemetry.Telemetry = true
	panicky.Inject = "panic@3"
	drift.Seed = 99
	// Trial 1's failure interrupts shard 1/2 of long; the ordered stream
	// lets at most four more of its eight trials start, so it is unfinished.
	long.Trials, long.Inject = 16, "panic@1"

	type shard struct {
		path string
		agg  *exp.Aggregate
	}
	runs := map[string]shard{}
	run := func(name string, cfg exp.Config, index, count int, interrupt bool) shard {
		if s, ok := runs[name]; ok {
			return s
		}
		cfg.ShardIndex, cfg.ShardCount = index, count
		if interrupt {
			stop := make(chan struct{})
			cfg.Interrupt, cfg.Parallelism = stop, 1
			exp.FailureHook = func(*exp.TrialError) { close(stop) }
			defer func() { exp.FailureHook = nil }()
		}
		s := shard{path: filepath.Join(dir, name+".json")}
		res, err := Run(cfg, Options{Checkpoint: s.path})
		if err != nil {
			t.Fatal(err)
		}
		s.agg = res.Agg
		runs[name] = s
		return s
	}
	half := func(i int) shard { return run(fmt.Sprintf("base-%d-2", i), base, i, 2, false) }
	quarter := func(i int) shard { return run(fmt.Sprintf("base-%d-4", i), base, i, 4, false) }

	rows := []struct {
		name  string
		set   []shard
		merge bool // whether the set is a complete campaign
	}{
		{"2-way, reversed", []shard{half(1), half(0)}, true},
		{"4-way, reversed", []shard{quarter(3), quarter(2), quarter(1), quarter(0)}, true},
		{"mixed counts: 0 of 2, 1 of 4, 3 of 4", []shard{half(0), quarter(1), quarter(3)}, true},
		{"duplicate shard", []shard{half(0), half(1), half(0)}, false},
		{"missing shard", []shard{quarter(0), quarter(1), quarter(3)}, false},
		{"interrupted shard", []shard{run("long-0-2", long, 0, 2, false), run("long-1-2", long, 1, 2, true)}, false},
		{"seed drift", []shard{half(0), run("drift-1-2", drift, 1, 2, false)}, false},
		{"telemetry on", []shard{run("telemetry-1-2", telemetry, 1, 2, false), run("telemetry-0-2", telemetry, 0, 2, false)}, true},
		{"one injected panic", []shard{run("panicky-0-2", panicky, 0, 2, false), run("panicky-1-2", panicky, 1, 2, false)}, true},
	}
	for ri, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// One file per member, so an error names each by its own path.
			paths := make([]string, len(row.set))
			aggs := make([]*exp.Aggregate, len(row.set))
			for i, s := range row.set {
				paths[i] = filepath.Join(dir, fmt.Sprintf("row%d-member%d.json", ri, i))
				if err := os.WriteFile(paths[i], readFile(t, s.path), 0o644); err != nil {
					t.Fatal(err)
				}
				aggs[i] = s.agg
			}
			files, errF := MergeFiles(paths)
			memory, errM := MergeAggregates(aggs)
			if (errF == nil) != row.merge || (errM == nil) != row.merge {
				t.Fatalf("want merged=%v; MergeFiles: %v; MergeAggregates: %v", row.merge, errF, errM)
			}
			if !row.merge {
				msg := errF.Error()
				for i, p := range paths {
					msg = strings.ReplaceAll(msg, p, fmt.Sprintf("aggregate %d", i))
				}
				if msg != errM.Error() {
					t.Fatalf("the merges refuse for different reasons:\n  files:  %v\n  memory: %v", errF, errM)
				}
				return
			}
			fromFiles := files.Agg
			for _, a := range []*exp.Aggregate{fromFiles, memory} {
				scrubStacks(a)
				if a.Config.Trace == nil || a.Config.Trace.Name() != base.Trace.Name() {
					t.Fatal("merged config lost its trace")
				}
				a.Config.Trace = nil
			}
			if !reflect.DeepEqual(fromFiles, memory) {
				t.Fatal("MergeFiles and MergeAggregates fold the same shards to different aggregates")
			}
		})
	}
}

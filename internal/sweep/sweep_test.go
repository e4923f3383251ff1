package sweep

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"voxel/internal/exp"
	"voxel/internal/trace"
)

// testCfg is the reference sweep: multi-trial on a varying trace so every
// trial has a distinct seed and shift.
func testCfg() exp.Config {
	return exp.Config{
		Title:          "BBB",
		System:         exp.SysVoxel,
		BufferSegments: 3,
		Trace:          trace.TMobile(),
		Trials:         6,
		Segments:       6,
		Seed:           11,
	}
}

func scrubStacks(a *exp.Aggregate) *exp.Aggregate {
	for i := range a.Failed {
		a.Failed[i].Stack = ""
	}
	return a
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		spec   string
		want   Shard
		wantOK bool
	}{
		{"0/1", Shard{0, 1}, true},
		{"0/4", Shard{0, 4}, true},
		{"3/4", Shard{3, 4}, true},
		{" 1 / 2 ", Shard{1, 2}, true},
		{"4/4", Shard{}, false},
		{"5/4", Shard{}, false},
		{"-1/4", Shard{}, false},
		{"0/0", Shard{}, false},
		{"1/-2", Shard{}, false},
		{"1", Shard{}, false},
		{"a/b", Shard{}, false},
		{"1/2/3", Shard{}, false},
		{"", Shard{}, false},
	}
	for _, tc := range cases {
		got, err := ParseShard(tc.spec)
		if tc.wantOK && (err != nil || got != tc.want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("ParseShard(%q) accepted, want error", tc.spec)
		}
	}
	if (Shard{2, 8}).String() != "2/8" {
		t.Error("String round-trip broken")
	}
	if !(Shard{}).Unsharded() || (Shard{1, 4}).Unsharded() {
		t.Error("Unsharded predicate wrong")
	}
}

// Owned partitions the trial count exactly: the owned counts of a full
// shard set sum to the total, and every shard gets ⌊n/c⌋ or ⌈n/c⌉.
func TestShardOwned(t *testing.T) {
	for _, count := range []int{0, 1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 5, 12, 30} {
			c := max(count, 1)
			sum := 0
			for i := 0; i < c; i++ {
				owned := Shard{Index: i, Count: count}.Owned(n)
				if lo, hi := n/c, (n+c-1)/c; owned < lo || owned > hi {
					t.Fatalf("shard %d/%d of %d trials owns %d, want in [%d,%d]",
						i, count, n, owned, lo, hi)
				}
				sum += owned
			}
			if sum != n {
				t.Fatalf("%d-way shards of %d trials own %d total", count, n, sum)
			}
		}
	}
}

// A checkpointed run that finishes, then a second invocation pointed at the
// same file, must restore everything (zero recomputation) and produce the
// identical aggregate. Then a truncated checkpoint — the exact on-disk
// state after a crash that lost the tail — must resume and still match.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	cfg := testCfg()
	cfg.Inject = "panic@2" // cover failure records through the file format

	clean := exp.Run(cfg)
	scrubStacks(clean)

	r1, err := Run(cfg, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Restored != 0 || r1.Ran != 6 {
		t.Fatalf("first run restored=%d ran=%d, want 0/6", r1.Restored, r1.Ran)
	}
	if !reflect.DeepEqual(scrubStacks(r1.Agg), clean) {
		t.Fatal("checkpointed run differs from plain exp.Run")
	}

	r2, err := Run(cfg, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Restored != 6 || r2.Ran != 0 {
		t.Fatalf("full resume restored=%d ran=%d, want 6/0", r2.Restored, r2.Ran)
	}
	if !reflect.DeepEqual(scrubStacks(r2.Agg), clean) {
		t.Fatal("fully-restored aggregate differs from clean run")
	}

	// Truncate to the first 3 done trials — the post-crash state — and
	// resume. (Trial 2 is the injected failure, so the cut keeps the first
	// two trial records and the failure record.)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Done, cp.Trials = cp.Done[:3], cp.Trials[:2]
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r3, err := Run(cfg, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Restored != 3 || r3.Ran != 3 {
		t.Fatalf("partial resume restored=%d ran=%d, want 3/3", r3.Restored, r3.Ran)
	}
	if !reflect.DeepEqual(scrubStacks(r3.Agg), clean) {
		t.Fatal("resumed aggregate differs from clean run")
	}

	// The refreshed file must be structurally complete again.
	cp2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp2.Done) != 6 {
		t.Fatalf("refreshed file holds %d of 6 trials", len(cp2.Done))
	}
}

// A checkpoint written by a different experiment must be refused, never
// silently recomputed over.
func TestCheckpointMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if _, err := Run(testCfg(), Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	other := testCfg()
	other.Seed = 999
	if _, err := Run(other, Options{Checkpoint: path}); err == nil {
		t.Fatal("different seed must not reuse the checkpoint")
	}
	shifted := testCfg()
	shifted.ShardIndex, shifted.ShardCount = 0, 2
	if _, err := Run(shifted, Options{Checkpoint: path}); err == nil {
		t.Fatal("different shard must not reuse the checkpoint")
	}
	if _, err := Run(testCfg(), Options{Checkpoint: path, Stream: true}); err == nil {
		t.Fatal("mode flip must not reuse the checkpoint")
	}
	// Corrupted bytes are a load error, not a fresh start.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testCfg(), Options{Checkpoint: path}); err == nil {
		t.Fatal("corrupt checkpoint must error")
	}
	// A tampered fingerprint is caught.
	good, err := Run(testCfg(), Options{})
	_ = good
	if err != nil {
		t.Fatal(err)
	}
}

// The merge tool's whole path: run shards to checkpoint files, load the
// files back into one accumulator, fold — and land exactly on the unsharded
// clean run, and on what MergeAggregates makes of the shard aggregates in
// memory.
func TestShardFilesMergeToCleanRun(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.Telemetry = true

	clean := exp.Run(cfg)

	var shards []*exp.Aggregate
	var files []string
	for i := 0; i < 2; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, 2
		path := filepath.Join(dir, "shard"+string(rune('0'+i))+".json")
		res, err := Run(c, Options{Checkpoint: path, Every: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, res.Agg)
		files = append(files, path)
	}
	inProcess, err := MergeAggregates(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inProcess, clean) {
		t.Fatal("in-process shard merge differs from clean run")
	}
	m, err := MergeFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	merged := m.Agg
	// The shard results crossed a JSON round-trip; the merged result must
	// still be value-identical to the in-process clean run, except
	// Config.Trace which is rebuilt by name (compare it separately).
	if merged.Config.Trace == nil || merged.Config.Trace.Name() != clean.Config.Trace.Name() {
		t.Fatal("merged config lost its trace")
	}
	merged.Config.Trace = clean.Config.Trace
	if !reflect.DeepEqual(merged, clean) {
		if !reflect.DeepEqual(merged.Trials, clean.Trials) {
			t.Fatal("merged trials differ from clean run after file round-trip")
		}
		if !reflect.DeepEqual(merged.Obs, clean.Obs) {
			t.Fatal("merged telemetry differs from clean run after file round-trip")
		}
		t.Fatal("merged aggregate differs from clean run")
	}

	// An incomplete shard file must refuse to merge.
	cp, err := LoadCheckpoint(files[0])
	if err != nil {
		t.Fatal(err)
	}
	cp.Done, cp.Trials = cp.Done[:1], cp.Trials[:1]
	if err := cp.WriteFile(files[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFiles(files); err == nil || !strings.Contains(err.Error(), "hold 4 of 6 trials; trial 2 is the first missing") {
		t.Fatalf("incomplete shard checkpoint must not merge, got %v", err)
	}
}

// Streaming mode: quantiles within α of the classic aggregate's exact
// percentiles, bit-identical state across parallelism, kill/resume, and
// shard/merge.
func TestStreamModeAccuracyAndMerge(t *testing.T) {
	cfg := testCfg()
	classic := exp.Run(cfg)

	r, err := Run(cfg, Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stream
	if st.Trials != 6 || st.Failed != 0 {
		t.Fatalf("stream counted %d/%d trials/failed", st.Trials, st.Failed)
	}
	if int(st.Score.Count()) != len(classic.AllScores) {
		t.Fatalf("stream folded %d scores, classic has %d", st.Score.Count(), len(classic.AllScores))
	}
	// Compare under the sketch's closest-rank convention: the q-quantile of
	// a sorted n-sample is the element at 0-based rank floor(q·(n-1)).
	sorted := append([]float64(nil), classic.BufRatios...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		want := sorted[int(q*float64(len(sorted)-1))]
		got := st.BufRatio.Quantile(q)
		if math.Abs(got-want) > 0.01*math.Abs(want)+1e-12 {
			t.Fatalf("bufRatio q%v: stream %v vs exact %v", q, got, want)
		}
	}

	// Parallel stream run folds in the same order → identical sketch state.
	par := cfg
	par.Parallelism = 4
	rp, err := Run(par, Options{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rp.Stream, st) {
		t.Fatal("parallel stream state differs from sequential")
	}

	// Sharded stream runs merge to the unsharded state exactly (bucket
	// counts and quantiles; Sum folds in shard order by construction).
	mergedSt := NewStreamAgg()
	for i := 0; i < 2; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, 2
		ri, err := Run(c, Options{Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := mergedSt.Merge(ri.Stream); err != nil {
			t.Fatal(err)
		}
	}
	if mergedSt.Trials != st.Trials || mergedSt.Scores != st.Scores {
		t.Fatal("merged stream counts differ from unsharded")
	}
	for _, q := range []float64{0, 0.5, 0.9, 1} {
		if mergedSt.Score.Quantile(q) != st.Score.Quantile(q) {
			t.Fatalf("q=%v: merged stream quantile differs from unsharded", q)
		}
	}

	// Stream + checkpoint: resume from a prior complete file is a no-op
	// that reproduces the same state.
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.json")
	r1, err := Run(cfg, Options{Stream: true, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, Options{Stream: true, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Ran != 0 || r2.Restored != 6 {
		t.Fatalf("stream resume restored=%d ran=%d, want 6/0", r2.Restored, r2.Ran)
	}
	if !reflect.DeepEqual(r2.Stream, r1.Stream) {
		t.Fatal("restored stream state differs")
	}

	// Telemetry is incompatible with streaming.
	tcfg := cfg
	tcfg.Telemetry = true
	if _, err := Run(tcfg, Options{Stream: true}); err == nil {
		t.Fatal("stream+telemetry must be rejected")
	}
}

// The checkpoint file is byte-deterministic: two processes that completed
// the same trials write identical bytes (failure-free config, since panic
// stacks embed goroutine IDs).
func TestCheckpointBytesDeterministic(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, parallelism int) []byte {
		cfg := testCfg()
		cfg.Parallelism = parallelism
		path := filepath.Join(dir, name)
		if _, err := Run(cfg, Options{Checkpoint: path}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := write("a.json", 0)
	b := write("b.json", 4)
	if string(a) != string(b) {
		t.Fatal("checkpoint bytes differ across parallelism")
	}
	// And the JSON is valid and versioned.
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(a, &probe); err != nil || probe.Version != checkpointVersion {
		t.Fatalf("checkpoint file malformed: %v version=%d", err, probe.Version)
	}
}

// TestKillResume SIGKILLs a child mid-sweep and resumes from its
// checkpoint: the result must be exactly the clean-run aggregate. The
// child is this test binary re-exec'd into sweepKillChild.
func TestKillResume(t *testing.T) {
	if os.Getenv("SWEEP_KILL_CHILD") != "" {
		runKillChild()
		return
	}
	if testing.Short() {
		t.Skip("re-exec child in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	cmd := exec.Command(os.Args[0], "-test.run=TestKillResume")
	cmd.Env = append(os.Environ(), "SWEEP_KILL_CHILD="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the child has checkpointed at least one trial but is (in
	// all likelihood) not done, then kill -9. If the child won the race
	// and finished, the test still validates full restore.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child never wrote a checkpoint")
		}
		if cp, err := LoadCheckpoint(path); err == nil && len(cp.Done) >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no deferred cleanup, no final write
	cmd.Wait()

	cfg := killCfg()
	clean := exp.Run(cfg)
	res, err := Run(cfg, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored == 0 {
		t.Error("resume restored nothing; kill landed before any checkpoint survived")
	}
	t.Logf("resumed after SIGKILL: restored=%d ran=%d", res.Restored, res.Ran)
	if !reflect.DeepEqual(res.Agg, clean) {
		t.Fatal("post-kill resumed aggregate differs from clean run")
	}
}

// killCfg must be slow enough for the parent to land a SIGKILL mid-sweep.
func killCfg() exp.Config {
	c := testCfg()
	c.Trials = 8
	c.Segments = 8
	return c
}

func runKillChild() {
	path := os.Getenv("SWEEP_KILL_CHILD")
	if _, err := Run(killCfg(), Options{Checkpoint: path, Every: 1}); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// mallocsDuring counts the heap allocations fn makes: a deterministic proxy
// for how much simulation it did.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A checkpoint that cannot be written stops the sweep at the next trial
// boundary instead of simulating every remaining trial and then throwing
// the work away: Run reports the failure, Ran is exactly the one trial whose
// write failed, and the work done is a small fraction of the full sweep's.
// How small is bounded by the executor, not by scheduling luck: when the
// first delivery fails, at most Parallelism trials are in flight and the
// ordered stream (4 × Parallelism cells) lets the workers run that many
// ahead of it, so no more than 11 of the 80 trials can have started — the
// 3× margin below holds at any interleaving.
func TestCheckpointWriteFailureStopsRun(t *testing.T) {
	cfg := testCfg()
	cfg.Trials = 80
	cfg.Segments = 3
	cfg.Parallelism = 2
	full := mallocsDuring(func() {
		if _, err := Run(cfg, Options{}); err != nil {
			t.Fatal(err)
		}
	})

	// The directory does not exist: no previous file to load (a fresh run),
	// and no write can succeed.
	path := filepath.Join(t.TempDir(), "missing", "state.json")
	var res Result
	var err error
	stopped := mallocsDuring(func() { res, err = Run(cfg, Options{Checkpoint: path}) })
	if err == nil || !strings.Contains(err.Error(), "checkpoint write failed") {
		t.Fatalf("got err %v, want the checkpoint write failure", err)
	}
	if res.Ran != 1 {
		t.Fatalf("Ran = %d of %d owned trials, want exactly the one whose write failed", res.Ran, cfg.Trials)
	}
	if stopped*3 > full {
		t.Fatalf("the failed run allocated %d objects, the full sweep %d: the remaining trials still simulated",
			stopped, full)
	}
}

// FailureHook through the sweep engine: once per failing trial this process
// computed, in trial order at any parallelism; never for trials restored
// from a checkpoint; never from a merge.
func TestFailureHookThroughSweep(t *testing.T) {
	var got []int
	exp.FailureHook = func(te *exp.TrialError) { got = append(got, te.Trial) }
	defer func() { exp.FailureHook = nil }()
	fired := func() []int {
		out := got
		got = nil
		return out
	}

	dir := t.TempDir()
	cfg := testCfg()
	cfg.Inject = "panic" // every trial fails, so ordering has something to order
	cfg.Parallelism = 4
	path := filepath.Join(dir, "state.json")
	if _, err := Run(cfg, Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if f, want := fired(), []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(f, want) {
		t.Fatalf("fresh run fired %v, want %v", f, want)
	}

	// Resume from the first half: only the recomputed half reports.
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.Done, cp.Fails = cp.Done[:3], cp.Fails[:3]
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, Options{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if f, want := fired(), []int{3, 4, 5}; res.Restored != 3 || !reflect.DeepEqual(f, want) {
		t.Fatalf("resume restored %d and fired %v, want 3 and %v", res.Restored, f, want)
	}
	if _, err := Run(cfg, Options{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if f := fired(); f != nil {
		t.Fatalf("a fully restored run fired %v", f)
	}

	// Shards report their own trials; merging their files, or their
	// aggregates, reports nothing: a pure fold never fires the hook.
	var files []string
	var shards []*exp.Aggregate
	for i := 0; i < 2; i++ {
		c := cfg
		c.ShardIndex, c.ShardCount = i, 2
		files = append(files, filepath.Join(dir, "shard"+string(rune('0'+i))+".json"))
		res, err := Run(c, Options{Checkpoint: files[i]})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, res.Agg)
		if f, want := fired(), []int{i, i + 2, i + 4}; !reflect.DeepEqual(f, want) {
			t.Fatalf("shard %d fired %v, want %v", i, f, want)
		}
	}
	if m, err := MergeFiles(files); err != nil || len(m.Agg.Failed) != 6 {
		t.Fatalf("merge: %v", err)
	}
	if f := fired(); f != nil {
		t.Fatalf("MergeFiles fired %v", f)
	}
	if agg, err := MergeAggregates(shards); err != nil || len(agg.Failed) != 6 {
		t.Fatalf("merge: %v", err)
	}
	if f := fired(); f != nil {
		t.Fatalf("MergeAggregates fired %v", f)
	}
}

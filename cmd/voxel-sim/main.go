// Command voxel-sim runs one streaming experiment configuration — title,
// system (ABR + transport), trace, buffer size — for N trials and prints
// the paper's metrics: p90 and mean bufRatio, average bitrate, score
// distribution, skipped data, and residual loss. With -telemetry it also
// collects the per-trial obs timeline and counters, prints a summary, and
// can export them as JSONL (-telemetry-out) and CSV (-telemetry-csv).
//
// Large campaigns scale out with the sweep engine: -shard i/n runs only
// this process's slice of the trial set, -checkpoint makes the run
// resumable after a crash or SIGKILL with no recomputation (and its final
// file is the shard's output), and -stream folds trials into bounded-memory
// quantile sketches instead of retaining them. -merge s0.json s1.json …
// folds a complete set of shard outputs back into the campaign and prints
// it exactly as an unsharded run prints — -checkpoint then names where the
// merged file goes, byte-identical to an unsharded run's checkpoint.
//
// With -repro it instead replays a JSON crash artifact (written by
// voxel-fuzz, or printed as a failing run's "replay:" line; - reads stdin):
// it runs exactly the configuration the artifact records and exits 0 only
// if the recorded violation reproduces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"voxel"
	"voxel/internal/chaos"
	"voxel/internal/exp"
	"voxel/internal/profiling"
	"voxel/internal/stats"
	"voxel/internal/sweep"
)

// stopProfiles flushes any active pprof collectors; fatal runs it so a
// failed run still leaves usable profiles behind (os.Exit skips defers).
var stopProfiles = func() {}

func main() {
	title := flag.String("title", "BBB", "video title")
	system := flag.String("system", "VOXEL", "system: BOLA/Q, BOLA/Q*, MPC/Q, MPC/Q*, Tput/Q, Tput/Q*, BETA, BOLA-SSIM, VOXEL, VOXEL-rel, VOXEL-untuned")
	traceName := flag.String("trace", "verizon", "trace: tmobile, verizon, att, 3g, fcc, wild")
	buffer := flag.Int("buffer", 3, "playback buffer in segments")
	trials := flag.Int("trials", 10, "trials (paper: 30)")
	segments := flag.Int("segments", 0, "limit segment count (0 = full 75)")
	metricName := flag.String("metric", "ssim", "QoE metric: ssim, vmaf, psnr")
	queue := flag.Int("queue", 32, "router queue in packets (750 = long-queue appendix)")
	cross := flag.Float64("cross", 0, "cross-traffic load in Mbps over a 20 Mbps link (replaces the trace)")
	seed := flag.Int64("seed", 1, "random seed")
	impair := flag.String("impair", "", "impairment profile: clean, bursty, flaky-wifi, handover-blackout")
	failover := flag.Bool("failover", false,
		"add a second origin and permanently blackhole the primary path mid-stream")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"concurrent trial workers (1 = sequential; results are identical either way)")
	sessions := flag.Int("sessions", 1,
		"concurrent video sessions per trial sharing one bottleneck (swarm mode; more than one prints the per-session breakdown)")
	telemetry := flag.Bool("telemetry", false,
		"collect per-trial obs counters and timeline events (zero impact on results)")
	telemetryOut := flag.String("telemetry-out", "",
		"write the telemetry timeline as JSONL to this file (- = stdout); implies -telemetry")
	telemetryCSV := flag.String("telemetry-csv", "",
		"write per-trial telemetry counters as CSV to this file (- = stdout); implies -telemetry")
	invariants := flag.Bool("invariants", false,
		"arm the cross-layer invariant checker; a violation fails the trial with a replayable error")
	inject := flag.String("inject", "",
		"schedule a deliberate fault: panic, invariant, or spin, optionally @trial (tests the failure pipeline)")
	shardSpec := flag.String("shard", "",
		"run only shard i of an n-way campaign (\"i/n\", e.g. 0/4); fold the shard outputs with -merge")
	checkpointPath := flag.String("checkpoint", "",
		"resumable state file: finished trials restore from it, new ones append atomically; the finished file is the shard output -merge consumes (with -merge: where the merged file goes)")
	checkpointEvery := flag.Int("checkpoint-every", 1,
		"write the checkpoint after every N completed trials (requires -checkpoint)")
	stream := flag.Bool("stream", false,
		"streaming aggregation: fold each trial into mergeable quantile sketches (relative error ≤ 1%) and discard it, bounding memory by sketch size instead of trial count")
	merge := flag.Bool("merge", false,
		"fold the shard checkpoint files named as arguments into the campaign and print it as an unsharded run would (exclusive with run flags)")
	reproPath := flag.String("repro", "",
		"replay a JSON crash artifact (- = stdin), running exactly the configuration it records; exits 0 only if its violation reproduces (exclusive with sweep flags)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	shard, err := validateFlags(set, *shardSpec, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *reproPath != "" {
		os.Exit(runRepro(*reproPath))
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "voxel-sim: profile:", err)
		}
	}

	if *merge {
		files := flag.Args()
		m, err := sweep.MergeFiles(files)
		if err != nil {
			fatal(err)
		}
		if *checkpointPath != "" {
			if err := m.WriteFile(*checkpointPath); err != nil {
				fatal(err)
			}
		}
		if m.Stream != nil {
			fmt.Printf("merged %d streaming shard files\n", len(files))
		} else {
			fmt.Printf("merged %d shard files: %s / %s, %d trials\n",
				len(files), m.Agg.Config.System, m.Agg.Config.Title, len(m.Agg.Trials))
		}
		exitWith(report(m.Agg, m.Stream, *telemetryOut, *telemetryCSV))
	}

	var metric voxel.Metric
	switch *metricName {
	case "ssim":
		metric = voxel.SSIM
	case "vmaf":
		metric = voxel.VMAF
	case "psnr":
		metric = voxel.PSNR
	default:
		fatal(fmt.Errorf("unknown metric %q", *metricName))
	}
	cfg := exp.Config{
		Title:          *title,
		System:         exp.System(*system),
		BufferSegments: *buffer,
		Trials:         *trials,
		Segments:       *segments,
		Metric:         metric,
		QueuePackets:   *queue,
		Seed:           *seed,
		Parallelism:    *parallel,
		Sessions:       *sessions,
		ShardIndex:     shard.Index,
		ShardCount:     shard.Count,
		Impairment:     *impair,
		Failover:       *failover,
		Telemetry:      *telemetry || *telemetryOut != "" || *telemetryCSV != "",
		Invariants:     *invariants,
		Inject:         *inject,
	}
	if *invariants || *inject != "" {
		// Hardened runs also get the trial watchdog, so a wedged trial (e.g.
		// -inject spin's zero-delay event storm) fails with a replayable
		// TrialError instead of hanging the process.
		cfg.WatchdogWall, cfg.WatchdogEvents = exp.DefaultWatchdogWall, exp.DefaultWatchdogEvents
	}
	if *cross > 0 {
		cfg.CrossTraffic, cfg.LinkCapacity = *cross*1e6, 20e6
	} else if cfg.Trace, err = voxel.LoadTrace(*traceName); err != nil {
		fatal(err)
	}
	if _, err := voxel.LoadVideo(*title); err != nil {
		fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if tr := cfg.Trace; tr != nil {
		fmt.Printf("%s streaming %s over %s (mean %.1f Mbps, stddev %.1f Mbps), %d-segment buffer\n",
			*system, *title, tr.Name(), tr.Mean()/1e6, tr.StdDev()/1e6, *buffer)
	} else {
		fmt.Printf("%s streaming %s against %.0f Mbps cross traffic (20 Mbps link), %d-segment buffer\n",
			*system, *title, *cross, *buffer)
	}
	if *impair != "" {
		fmt.Printf("impairment profile: %s\n", *impair)
	}
	if *failover {
		fmt.Printf("failover scenario: primary path dies at %v, second origin takes over\n",
			exp.FailoverKillTime)
	}
	if *shardSpec != "" {
		fmt.Printf("shard %s: running %d of %d trials\n", shard, shard.Owned(*trials), *trials)
	}

	res, err := sweep.Run(cfg, sweep.Options{
		Checkpoint: *checkpointPath, Every: *checkpointEvery, Stream: *stream,
	})
	if err != nil {
		fatal(err)
	}
	if *checkpointPath != "" {
		fmt.Fprintf(os.Stderr, "checkpoints: %d writes, %.2f MB written, final %.2f MB\n", res.CheckpointWrites,
			float64(res.CheckpointBytes)/1e6, float64(res.CheckpointFinal)/1e6)
	}
	if res.Restored > 0 {
		fmt.Printf("restored %d finished trials from %s (%d run now)\n",
			res.Restored, *checkpointPath, res.Ran)
	}
	exitWith(report(res.Agg, res.Stream, *telemetryOut, *telemetryCSV))
}

// report prints a campaign's outcome — a run's or a merge's; exactly one of
// agg and st is set — and returns the exit status: 1 if any trial failed.
// Everything it prints follows from the results, never from flags, which is
// why a merged campaign prints exactly what its unsharded run prints.
func report(agg *exp.Aggregate, st *sweep.StreamAgg, telemetryOut, telemetryCSV string) int {
	exports := telemetryOut != "" || telemetryCSV != ""
	if st != nil {
		if exports {
			fatal(fmt.Errorf("a streaming campaign keeps no telemetry; nothing to export"))
		}
		fmt.Println()
		fmt.Print(st.Summary())
		if st.Failed > 0 {
			return 1
		}
		return 0
	}
	reportFailures(agg)

	fmt.Println()
	fmt.Print(agg.Summary())
	if cfg := agg.Config; cfg.Impairment != "" || cfg.Failover {
		var failed float64
		owned, incomplete := 0, 0
		for ti, t := range agg.Trials {
			if !cfg.Owns(ti) {
				continue
			}
			owned++
			failed += float64(t.FailedReqs)
			if !t.Completed {
				incomplete++
			}
		}
		fmt.Printf("%-26s %.1f\n", "failed requests (mean):", failed/float64(owned))
		fmt.Printf("%-26s %d/%d\n", "incomplete trials:", incomplete, owned)
	}
	printSwarm(agg)

	if rep := agg.Obs; rep != nil {
		fmt.Println()
		fmt.Print(rep.Summary())
		if kinds := rep.KindCounts(); len(kinds) > 0 {
			fmt.Printf("timeline events: %s\n", strings.Join(kinds, " "))
		}
		if err := rep.Export(telemetryOut, telemetryCSV); err != nil {
			fatal(err)
		}
	} else if exports {
		fatal(fmt.Errorf("the shards were run without -telemetry; nothing to export"))
	}
	if len(agg.Failed) > 0 {
		return 1
	}
	return 0
}

// exitWith ends the process with the given status, flushing profiles first.
func exitWith(code int) {
	stopProfiles()
	os.Exit(code)
}

// reportFailures prints every failed trial with its replay command. The
// surviving trials' statistics still print below; main exits nonzero at
// the end when anything failed.
func reportFailures(agg *exp.Aggregate) {
	if len(agg.Failed) == 0 {
		return
	}
	fmt.Printf("\n%d of %d trials FAILED:\n", len(agg.Failed), len(agg.Trials))
	for i := range agg.Failed {
		te := &agg.Failed[i]
		fmt.Printf("  trial %d (seed %d) at virtual %v: %s\n    %s\n",
			te.Trial, te.Seed, te.Clock, te.Rule, te.Msg)
		if te.Stack != "" {
			fmt.Printf("    stack:\n")
			for _, line := range strings.Split(strings.TrimRight(te.Stack, "\n"), "\n") {
				fmt.Printf("      %s\n", line)
			}
		}
		fmt.Printf("    replay: %s\n", te.ReplayCommand())
	}
}

// loadArtifact reads and decodes a crash artifact ("-" = stdin) and
// rebuilds the configuration it records.
func loadArtifact(path string) (*exp.Artifact, exp.Config, error) {
	var b []byte
	var err error
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, exp.Config{}, err
	}
	a, err := exp.DecodeArtifact(b)
	if err != nil {
		return nil, exp.Config{}, err
	}
	cfg, err := a.Spec.Config()
	return a, cfg, err
}

// runRepro replays a crash artifact and returns the process exit code:
// 0 when the recorded violation reproduces, 1 otherwise.
func runRepro(path string) int {
	a, cfg, err := loadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "voxel-sim:", err)
		return 1
	}
	fmt.Printf("replaying %s: %s/%s trial %d seed %d", path, cfg.Title, cfg.System, a.Trial, cfg.Seed)
	if a.Violation != "" {
		fmt.Printf(" (expecting %s)", a.Violation)
	}
	fmt.Println()
	ok, te := chaos.Reproduces(cfg, a.Violation)
	switch {
	case ok:
		fmt.Printf("reproduced: %s — %s\n", te.Rule, te.Msg)
		return 0
	case te != nil:
		fmt.Printf("failed with a DIFFERENT rule: %s — %s (artifact expects %s)\n",
			te.Rule, te.Msg, a.Violation)
		return 1
	default:
		fmt.Println("did not reproduce: every trial survived")
		return 1
	}
}

// printSwarm renders the per-session breakdown when some trial ran more
// than one session: fairness and utilization summaries plus one row per
// session index averaged across trials.
func printSwarm(agg *exp.Aggregate) {
	n := 0
	for _, t := range agg.Trials {
		n = max(n, len(t.Sessions))
	}
	if n <= 1 {
		return
	}
	fmt.Printf("\nswarm: %d sessions through one bottleneck\n", n)
	fmt.Printf("%-26s %.4f\n", "Jain fairness (mean):", agg.JainMean())
	fmt.Printf("%-26s %.2f%%\n", "bottleneck util (mean):", 100*agg.UtilizationMean())
	fmt.Printf("%-26s %.4f\n", "session QoE (p5):", agg.SessionQoEP5())
	fmt.Printf("%-26s %v\n", "total stall time:", agg.TotalStall())
	fmt.Printf("%9s  %12s  %10s  %10s  %10s\n",
		"session", "bitrate", "QoE", "bufRatio", "stall")
	for si := 0; si < n; si++ {
		var rate, score, buf, stall []float64
		for _, t := range agg.Trials {
			if si >= len(t.Sessions) {
				continue
			}
			sr := t.Sessions[si]
			rate = append(rate, sr.AvgBitrate)
			score = append(score, sr.MeanScore)
			buf = append(buf, sr.BufRatio)
			stall = append(stall, sr.StallTime.Seconds())
		}
		fmt.Printf("%9d  %9.2f Mb  %10.4f  %9.2f%%  %9.2fs\n",
			si, stats.Mean(rate)/1e6, stats.Mean(score),
			100*stats.Mean(buf), stats.Mean(stall))
	}
}

// exclusive lists the modes that do not run the configuration the flags
// describe, with the only flags that combine with each. New flags are
// conflicts by default — the allowlists name the only exceptions.
var exclusive = []struct {
	flag, does string
	allow      []string
}{
	{"repro", "-repro replays the artifact's own configuration", []string{"cpuprofile", "memprofile"}},
	{"merge", "-merge folds the campaign its files record",
		[]string{"checkpoint", "telemetry-out", "telemetry-csv", "cpuprofile", "memprofile"}},
}

// validateFlags enforces the cross-flag constraints given the set of flags
// explicitly present on the command line and the positional arguments, and
// parses the -shard spec. It returns the parsed shard (Unsharded when
// -shard was not given).
//
//   - -repro and -merge do not run what the run flags describe, so every
//     flag outside their allowlists (including -shard, -stream, -trials)
//     would be silently ignored; reject it. -merge writes the merged file
//     to -checkpoint and needs at least one file to fold; nothing else takes
//     positional arguments.
//   - -stream discards per-trial state as it folds, so the flags that need
//     retained trials (-telemetry and its exports) are contradictions, not
//     no-ops.
//   - -checkpoint-every without -checkpoint silently does nothing; reject.
func validateFlags(set map[string]bool, shardSpec string, args []string) (sweep.Shard, error) {
	for _, m := range exclusive {
		if !set[m.flag] {
			continue
		}
		var conflicts []string
		for name := range set {
			if name != m.flag && !slices.Contains(m.allow, name) {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			sort.Strings(conflicts)
			return sweep.Shard{}, fmt.Errorf("%s; drop %s", m.does, strings.Join(conflicts, ", "))
		}
	}
	switch {
	case set["merge"] && len(args) == 0:
		return sweep.Shard{}, fmt.Errorf("-merge needs the shard checkpoint files to fold")
	case !set["merge"] && len(args) > 0:
		return sweep.Shard{}, fmt.Errorf("unexpected arguments %q: only -merge takes files", args)
	}
	if set["stream"] {
		for _, bad := range []string{"telemetry", "telemetry-out", "telemetry-csv"} {
			if set[bad] {
				return sweep.Shard{}, fmt.Errorf(
					"-stream discards per-trial results as it folds them; it cannot honor -%s", bad)
			}
		}
	}
	if set["checkpoint-every"] && !set["checkpoint"] {
		return sweep.Shard{}, fmt.Errorf("-checkpoint-every does nothing without -checkpoint")
	}
	if shardSpec == "" {
		return sweep.Shard{}, nil
	}
	return sweep.ParseShard(shardSpec)
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "voxel-sim:", err)
	os.Exit(1)
}

// Command benchmark is the repo's benchmark: four named workloads run
// through the real experiment engine, measured end to end (a timed run) and
// layer by layer (a traced run). See README.md in this directory.
//
//	bash benchmark/run.sh                              all workloads, timed + traced, results file
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	bash benchmark/run.sh -compare a.json b.json       gate b against a
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"voxel/internal/obs"
	"voxel/internal/stats"
)

//go:embed golden/*.sha256
var goldenFS embed.FS

// outDir holds everything a run writes: traces, profiles, result files and
// scratch checkpoints. It is relative to the repo root, where run.sh starts
// the program, and git-ignored.
const outDir = "benchmark/out"

// goldenSeed is the one seed whose digests are committed; any other seed
// must produce a different digest and is checked for self-consistency only.
const goldenSeed = 1

// fidelity is printed with every result: the repo holds no hardware
// reference to measure the model's error against.
const fidelity = "fidelity: unvalidated here (see EXPERIMENTS.md); no error figure is given"

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runResult is everything a single run knows; it is also written beside the
// trace so the all-workloads driver can pick it up from its child process.
type runResult struct {
	resultLine
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Scale    string   `json:"scale"`
	Traced   bool     `json:"traced"`
	Digest   string   `json:"sim_digest"`
	Rounds   int      `json:"rounds"`
	Problems []string `json:"problems,omitempty"`
	// ProfiledCPUS and ProfiledAllocMB are the process CPU and allocation of
	// a traced run's profiled rounds, for checking the roll-up against.
	ProfiledCPUS    float64 `json:"profiled_cpu_s,omitempty"`
	ProfiledAllocMB float64 `json:"profiled_alloc_mb,omitempty"`
}

type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	sc      scale
	outDir  string
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line (default: all, timed and traced)")
		seed    = flag.Int64("seed", goldenSeed, "workload seed; the only input to the workload generators")
		seconds = flag.Int("seconds", 10, "run whole rounds for at least this long")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		scaleN  = flag.String("scale", "full", "round size: full or smoke")
		compare = flag.Bool("compare", false, "compare two result sets: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare base.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	sc, ok := scales[*scaleN]
	if !ok {
		fatal(2, "unknown -scale %q (have full, smoke)", *scaleN)
	}
	if *name == "" {
		ok, err := runAll(*seed, *seconds, sc)
		if err != nil {
			fatal(1, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(2, "unknown -workload %q", *name)
	}
	if *traced == 0 {
		// A timed run has every profiler off, the heap sampler included.
		runtime.MemProfileRate = 0
	}
	res, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced != 0, sc: sc, outDir: outDir}, os.Stdout)
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// run performs one run of one workload — timed or traced — prints its
// metrics to log, and leaves its artifacts in the out directory.
func run(rc runConfig, log io.Writer) (*runResult, error) {
	w := rc.w
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if rc.traced {
		rec = newRecorder(w.name)
	}
	root := rec.start(0, w.name)
	cells := w.cells(newInputs(rc.seed, rc.sc))
	setups := w.measureSetup(rc.sc, rec, root)
	w.warm(rc.sc)

	res := &runResult{Workload: w.name, Seed: rc.seed, Scale: rc.sc.name, Traced: rc.traced}
	res.Metrics = map[string]value{}
	opts := roundOpts{invariants: rc.sc.invariants, tmpDir: rc.outDir}
	budget := time.Duration(rc.seconds) * time.Second
	var rounds []*round
	var defs []metricDef
	if !rc.traced {
		p, err := w.runPhase(cells, budget, opts, 0)
		if err != nil {
			return nil, err
		}
		rounds = p.rounds
		defs = endToEnd
		// A second batch of set-ups after the rounds: the host's speed drifts
		// over seconds, and a median over two windows a run apart is steadier
		// than one over a single window at process start.
		setups = append(setups, w.measureSetup(rc.sc, nil, 0)...)
		endToEndMetrics(res.Metrics, p, setups)
	} else {
		tp, err := w.runTraced(rc, cells, budget, opts, rec, root)
		if err != nil {
			return nil, err
		}
		rounds = append(tp.ref.rounds, tp.traced.rounds...)
		defs = perLayer
		res.ProfiledCPUS = tp.traced.cpuS
		res.ProfiledAllocMB = float64(tp.traced.allocB) / 1e6
		if err := tp.perLayerMetrics(res.Metrics, rc, rec); err != nil {
			return nil, err
		}
	}
	rec.end(root)

	for _, r := range rounds {
		res.Attempted += r.trials
		res.Failed += r.failed
	}
	res.Rounds = len(rounds)
	res.Digest, res.Problems = checkRounds(rounds)
	res.Problems = append(res.Problems, checkGolden(rc, res.Digest)...)
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s missing or not finite", d.name))
		}
	}
	res.Correct = len(res.Problems) == 0
	if !res.Correct {
		// A workload whose outputs cannot be trusted did no countable work.
		res.Failed = res.Attempted
	}

	mode := "timed"
	if rc.traced {
		mode = "traced"
		if err := rec.writeFile(filepath.Join(rc.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "# %s  %s run  seed %d  scale %s  %d rounds  %d trials (%d failed)\n",
		w.name, mode, rc.seed, rc.sc.name, res.Rounds, res.Attempted, res.Failed)
	fmt.Fprintf(log, "# sim_digest %s\n# %s\n", res.Digest, fidelity)
	if rc.traced {
		fmt.Fprintf(log, "# roll-up shares under 2 %% of the total are sampling noise at 100 Hz\n")
	}
	for _, d := range defs {
		fmt.Fprintf(log, "%-34s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(log, "# INCORRECT: %s\n", p)
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(rc.outDir, fmt.Sprintf("run-%s-%s.json", w.name, mode)), append(b, '\n'), 0o644)
}

// checkGolden compares a full-scale digest with the committed one at the
// golden seed, and requires any other seed to differ from it.
func checkGolden(rc runConfig, digest string) []string {
	if rc.sc.name != "full" {
		return nil
	}
	b, err := goldenFS.ReadFile("golden/" + rc.w.name + ".sha256")
	if err != nil {
		return []string{fmt.Sprintf("no golden digest: %v", err)}
	}
	golden := strings.TrimSpace(string(b))
	switch {
	case rc.seed == goldenSeed && digest != golden:
		return []string{fmt.Sprintf("sim_digest %s differs from golden %s: the simulation's outputs changed", digest, golden)}
	case rc.seed != goldenSeed && digest == golden:
		return []string{fmt.Sprintf("seed %d reproduced seed %d's digest: the seed does not reach the inputs", rc.seed, goldenSeed)}
	}
	return nil
}

// endToEndMetrics fills the timed run's metrics. Simulated statistics come
// from the first round (every round repeats it exactly).
func endToEndMetrics(m map[string]value, p *phase, setups []float64) {
	n := float64(p.trials())
	first := p.rounds[0]
	vals := map[string]float64{
		"trials_per_s":         n / p.wallS,
		"virtual_s_per_wall_s": p.virtualS() / p.wallS,
		"cpu_s_per_trial":      p.cpuS / n,
		"alloc_mb_per_trial":   float64(p.allocB) / 1e6 / n,
		"allocs_per_trial":     float64(p.mallocs) / n,
		"setup_s":              median(setups),
		"score_mean":           stats.Mean(first.scores),
		"bitrate_mean_mbps":    stats.Mean(first.bitrates) / 1e6,
	}
	for _, d := range endToEnd {
		m[d.name] = value{vals[d.name], d.unit}
	}
}

// tracedPhases is a traced run: an untraced reference phase to measure the
// tracing overhead against, then the profiled, telemetered phase.
type tracedPhases struct {
	ref, traced      *phase
	refPeakRSSMB     float64
	cpuProfile       []byte
	allocs0, allocs1 []byte
}

func (w *workload) runTraced(rc runConfig, cells []cell, budget time.Duration, opts roundOpts, rec *recorder, root int) (*tracedPhases, error) {
	tp := &tracedPhases{}
	var err error
	if tp.ref, err = w.runPhase(cells, budget/2, opts, 0); err != nil {
		return nil, err
	}
	tp.refPeakRSSMB = peakRSSMB()
	if tp.allocs0, err = allocProfile(); err != nil {
		return nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	opts.telemetry = true
	opts.rec = rec
	tp.traced, err = w.runPhase(cells, budget/2, opts, root)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	tp.cpuProfile = cpu.Bytes()
	if tp.allocs1, err = allocProfile(); err != nil {
		return nil, err
	}
	for name, b := range map[string][]byte{"cpu": tp.cpuProfile, "allocs": tp.allocs1} {
		if err := os.WriteFile(filepath.Join(rc.outDir, name+"-"+w.name+".pprof"), b, 0o644); err != nil {
			return nil, err
		}
	}
	return tp, nil
}

// perLayerMetrics fills the traced run's metrics: spans, profile roll-up,
// telemetry counters, layer drivers, overheads. Roll-up figures are per
// round, so they do not depend on how many rounds the phase had time for.
func (tp *tracedPhases) perLayerMetrics(m map[string]value, rc runConfig, rec *recorder) error {
	vals := map[string]float64{
		"video.load_s":           median(rec.childSeconds("setup", "video.Load")),
		"dash.build_s":           median(rec.childSeconds("setup", "dash.Build")),
		"trace.load_s":           median(rec.childSeconds("setup", "trace.ByName")),
		"exp.cell_s_p50":         median(rec.seconds("exp.cell")),
		"sweep.shard_run_s":      median(rec.seconds("sweep.shard")),
		"sweep.merge_s":          median(rec.seconds("sweep.merge")),
		"obs.export_s":           median(rec.seconds("obs.export")),
		"sweep.checkpoint_bytes": float64(tp.traced.rounds[0].checkpointBytes),
	}

	rounds := float64(len(tp.traced.rounds))
	cpuNS, err := rollUp(tp.cpuProfile, "cpu")
	if err != nil {
		return err
	}
	a0, err := rollUp(tp.allocs0, "alloc_space")
	if err != nil {
		return err
	}
	a1, err := rollUp(tp.allocs1, "alloc_space")
	if err != nil {
		return err
	}
	for _, l := range layers {
		vals[l+".cpu_s"] = cpuNS[l] / 1e9 / rounds
		vals[l+".alloc_mb"] = (a1[l] - a0[l]) / 1e6 / rounds
	}

	first := tp.traced.rounds[0]
	c := func(k obs.Counter) float64 { return float64(first.counters[k]) }
	for _, cm := range counterMetrics {
		vals[cm.name] = c(cm.counter)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	vals["quic.goodput_ratio"] = ratio(c(obs.CStreamBytesSent)-c(obs.CRetransmitBytes), c(obs.CBytesSent))
	vals["httpsim.success_ratio"] = ratio(c(obs.CRequests)-c(obs.CFailedRequests), c(obs.CRequests))
	vals["netem.utilization"] = stats.Mean(first.utilization)
	vals["player.bufratio_p90_pct"] = 100 * stats.Percentile(first.bufRatios, 90)
	vals["exp.cpu_us_per_packet"] = ratio(tp.traced.cpuS/rounds*1e6, c(obs.CPacketsSent))

	drivers, err := runDrivers(rc.sc, rc.outDir)
	if err != nil {
		return err
	}
	for k, v := range drivers {
		vals[k] = v
	}

	refRound := tp.ref.wallS / float64(len(tp.ref.rounds))
	vals["obs.overhead_pct"] = 100 * (tp.traced.wallS/rounds - refRound) / refRound
	vals["runtime.peak_rss_mb"] = tp.refPeakRSSMB

	for _, d := range perLayer {
		if v, ok := vals[d.name]; ok {
			m[d.name] = value{v, d.unit}
		}
	}
	return nil
}

// resultSet is the all-workloads output: what results/baseline-*.json hold
// and what -compare reads.
type resultSet struct {
	Schema    int               `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Scale     string            `json:"scale"`
	GoVersion string            `json:"go_version"`
	NumCPU    int               `json:"num_cpu"`
	Fidelity  string            `json:"fidelity"`
	Workloads []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Digest    string           `json:"sim_digest"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// combine folds a workload's timed and traced runs into one result. The two
// digests must agree: telemetry and profiling never perturb the simulation.
func combine(timed, traced *runResult) *workloadResult {
	wr := &workloadResult{Name: timed.Workload, Attempted: timed.Attempted, Failed: timed.Failed, Digest: timed.Digest,
		EndToEnd: timed.Metrics, PerLayer: traced.Metrics,
		Problems: append(append([]string(nil), timed.Problems...), traced.Problems...)}
	if traced.Digest != timed.Digest {
		wr.Problems = append(wr.Problems, fmt.Sprintf("traced run's sim_digest %s differs from the timed run's %s: tracing perturbed the simulation", traced.Digest, timed.Digest))
	}
	if wr.Correct = len(wr.Problems) == 0; !wr.Correct {
		wr.Failed = wr.Attempted
	}
	return wr
}

// runAll runs every workload timed and then traced, each run in a fresh
// child process (this binary re-executed) so heap state, the manifest cache
// and profiles never leak from one run into the next.
func runAll(seed int64, seconds int, sc scale) (ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := &resultSet{Schema: 1, Seed: seed, Seconds: seconds, Scale: sc.name,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Fidelity: fidelity}
	ok = true
	for _, w := range workloads {
		var runs [2]runResult
		for traced, mode := range []string{"timed", "traced"} {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(traced), "-scale", sc.name)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s %s run: %w", w.name, mode, err)
			}
			b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", w.name, mode)))
			if err != nil {
				return false, err
			}
			if err := json.Unmarshal(b, &runs[traced]); err != nil {
				return false, err
			}
		}
		wr := combine(&runs[0], &runs[1])
		ok = ok && wr.Correct
		set.Workloads = append(set.Workloads, wr)
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	resultsPath := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(resultsPath, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("# result set written to %s\n", resultsPath)
	return ok, nil
}

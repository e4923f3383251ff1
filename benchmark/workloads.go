package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"voxel"
	"voxel/internal/exp"
	"voxel/internal/obs"
	"voxel/internal/sweep"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// scale sizes one round of every workload. "full" is what the numbers in
// README.md and results/ are measured at; "smoke" exists for the test.
type scale struct {
	name                         string
	fig6Trials, fig6Segments     int
	swarmSessions, swarmSegments int
	chaosTrials, chaosSegments   int
	sweepTrials, sweepSegments   int
	// invariants arms the cross-layer invariant checker in every trial.
	invariants bool
	// driverDiv divides the layer drivers' fixed iteration counts.
	driverDiv int
	// setupWall is how long each batch of cold set-ups runs for (at least 5
	// set-ups); a timed run has two batches, a traced run one.
	setupWall time.Duration
}

var scales = map[string]scale{
	"full": {name: "full",
		fig6Trials: 2, fig6Segments: 25,
		swarmSessions: 64, swarmSegments: 10,
		chaosTrials: 16, chaosSegments: 25,
		sweepTrials: 320, sweepSegments: 4,
		driverDiv: 1, setupWall: 1500 * time.Millisecond},
	"smoke": {name: "smoke",
		fig6Trials: 1, fig6Segments: 3,
		swarmSessions: 8, swarmSegments: 3,
		chaosTrials: 2, chaosSegments: 9,
		sweepTrials: 16, sweepSegments: 2,
		invariants: true, driverDiv: 50},
}

// sweepShards and sweepEvery are fixed: two shard runs, checkpoint every 8
// trials (at every 1 the O(n²) checkpoint rewrite and its fsyncs dominate).
const (
	sweepShards = 2
	sweepEvery  = 8
)

// traceJitter is the relative per-sample perturbation -seed applies to a
// bandwidth trace: enough that every byte of every trial lands at a
// different instant (so the digest differs), small enough that the amount
// of simulated work — and with it allocations per trial — barely moves.
const traceJitter = 0.001

// workload is one named set of inputs. The program under test only ever
// sees the exp.Configs the cells build; -seed is the only knob.
type workload struct {
	name, why string
	titles    []string
	segments  func(scale) int
	traces    []string // canonical trace names resolved during set-up
	// telemetry is on even in the timed run (a telemetry workload).
	telemetry bool
	// sharded runs the cells as sweep shards, then merges and exports.
	sharded bool
	cells   func(in *inputs) []cell
}

// cell is one Session.Run of a workload round.
type cell struct {
	label string
	title string
	opts  []voxel.Option
}

// inputs is everything derived from -seed.
type inputs struct {
	sc      scale
	cfgSeed int64 // exp.Config.Seed; drives the impairment RNGs
	rng     *rand.Rand
}

func newInputs(seed int64, sc scale) *inputs {
	// 2·seed+1 is never 0, which exp would silently default to 1.
	return &inputs{sc: sc, cfgSeed: 2*seed + 1, rng: rand.New(rand.NewSource(seed))}
}

// jittered returns tr with every sample scaled by 1±traceJitter.
func (in *inputs) jittered(tr *trace.Trace) *trace.Trace {
	src := tr.Samples()
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = v * (1 + traceJitter*(2*in.rng.Float64()-1))
	}
	return trace.MustNew(tr.Name()+"~jitter", out)
}

func base(trials, segments int, seed int64) []voxel.Option {
	return []voxel.Option{
		voxel.WithTrials(trials), voxel.WithSegments(segments),
		voxel.WithSeed(seed), voxel.WithParallelism(1),
	}
}

func with(base []voxel.Option, more ...voxel.Option) []voxel.Option {
	return append(append([]voxel.Option(nil), base...), more...)
}

func mustTrace(name string) *trace.Trace {
	tr, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	return tr
}

var workloads = []*workload{
	{
		name:     "fig6-matrix",
		why:      "Clean-path steady state: httpsim, quic and netem payload movement do almost all the work; run one trial at a time so packing hides nothing.",
		titles:   []string{"BBB", "ToS"},
		segments: func(sc scale) int { return sc.fig6Segments },
		traces:   []string{"verizon", "tmobile"},
		cells: func(in *inputs) []cell {
			var cells []cell
			base := base(in.sc.fig6Trials, in.sc.fig6Segments, 1)
			for _, tt := range [][2]string{{"BBB", "verizon"}, {"ToS", "tmobile"}} {
				tr := in.jittered(mustTrace(tt[1]))
				for _, buf := range []int{1, 7} {
					for _, sys := range []voxel.System{voxel.BOLA, voxel.BETA, voxel.VOXEL} {
						cells = append(cells, cell{
							label: fmt.Sprintf("%s/%s/buf%d/%s", tt[0], tt[1], buf, sys),
							title: tt[0],
							opts:  with(base, voxel.WithTrace(tr), voxel.WithBuffer(buf), voxel.WithSystem(sys)),
						})
					}
				}
			}
			return cells
		},
	},
	{
		name:     "swarm-64",
		why:      "One big world: hundreds of live timers, a shared bottleneck queue and per-connection state dominate; fan-out and fold do nothing.",
		titles:   []string{"BBB"},
		segments: func(sc scale) int { return sc.swarmSegments },
		cells: func(in *inputs) []cell {
			// 4 Mbit/s per session, so the link scales with the smoke swarm.
			link := in.jittered(trace.Constant("swarm-link", 4e6*float64(in.sc.swarmSessions), 600))
			return []cell{{
				label: fmt.Sprintf("BBB/%d-sessions", in.sc.swarmSessions),
				title: "BBB",
				opts: with(base(1, in.sc.swarmSegments, 1), voxel.WithTrace(link),
					voxel.WithBuffer(3), voxel.WithSessions(in.sc.swarmSessions)),
			}}
		},
	},
	{
		name:     "chaos-mix",
		why:      "Same layers under loss, blackouts and origin failover: loss detection, PTO, selective retransmission, retries; a fast-path gain that slows recovery shows only here.",
		titles:   []string{"BBB"},
		segments: func(sc scale) int { return sc.chaosSegments },
		traces:   []string{"verizon"},
		cells: func(in *inputs) []cell {
			var cells []cell
			base := base(in.sc.chaosTrials, in.sc.chaosSegments, 1)
			tr := in.jittered(mustTrace("verizon"))
			for _, imp := range []string{"bursty", "flaky-wifi", "handover-blackout"} {
				opts := with(base, voxel.WithTrace(tr), voxel.WithImpairment(imp))
				if imp == "handover-blackout" {
					opts = append(opts, voxel.WithFailover())
				}
				cells = append(cells, cell{label: "BBB/verizon/" + imp, title: "BBB", opts: opts})
			}
			return cells
		},
	},
	{
		name:      "sweep-shards",
		why:       "Many tiny telemetry trials as two checkpointed shards, merged and exported: world set-up, fold, checkpoint I/O, merge and export are a visible share of wall time.",
		titles:    []string{"BBB"},
		segments:  func(sc scale) int { return sc.sweepSegments },
		traces:    []string{"verizon"},
		telemetry: true,
		sharded:   true,
		cells: func(in *inputs) []cell {
			// The checkpoint format can only rebuild canonical traces, so this
			// trace is not jittered; -seed acts through the bursty profile's
			// loss RNG instead (a clean path consumes no randomness at all).
			opts := with(base(in.sc.sweepTrials, in.sc.sweepSegments, in.cfgSeed),
				voxel.WithTraceName("verizon"), voxel.WithBuffer(1),
				voxel.WithImpairment("bursty"), voxel.WithParallelism(2))
			cells := make([]cell, sweepShards)
			for i := range cells {
				cells[i] = cell{
					label: fmt.Sprintf("shard-%d-of-%d", i, sweepShards),
					title: "BBB",
					opts:  with(opts, voxel.WithShard(i, sweepShards)),
				}
			}
			return cells
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// round is what one pass over a workload's cells produced: simulated
// outputs (which repeat exactly) and nothing measured on the host.
type round struct {
	trials, failed int
	failure        string  // first failure, for the report
	virtualS       float64 // simulated seconds of playback, all sessions
	digest         string
	bufRatios      []float64
	scores         []float64
	bitrates       []float64
	utilization    []float64
	// counters sums the cells' telemetry (zero without telemetry).
	counters        [obs.NumCounters]uint64
	checkpointBytes int64
}

// roundOpts selects how a round is run; the inputs stay the same.
type roundOpts struct {
	telemetry  bool
	invariants bool
	rec        *recorder
	parent     int
	tmpDir     string // sharded rounds put checkpoints and exports here
}

// runRound runs every cell of the workload once, in order, closed loop.
func (w *workload) runRound(cells []cell, o roundOpts) (*round, error) {
	rd := &round{}
	h := sha256.New()
	var extra []voxel.Option
	if o.telemetry || w.telemetry {
		extra = append(extra, voxel.WithTelemetry())
	}
	if o.invariants {
		extra = append(extra, voxel.WithInvariants())
	}
	if !w.sharded {
		for _, c := range cells {
			id := o.rec.start(o.parent, "exp.cell")
			agg, rep, err := voxel.New(c.title, with(c.opts, extra...)...).Run()
			o.rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label, err)
			}
			rd.fold(h, agg, rep)
		}
		rd.digest = hex.EncodeToString(h.Sum(nil))
		return rd, nil
	}

	dir, err := os.MkdirTemp(o.tmpDir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, len(cells))
	for i, c := range cells {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.ckpt", i))
		opts := append(with(c.opts, extra...), voxel.WithCheckpoint(paths[i], sweepEvery))
		id := o.rec.start(o.parent, "sweep.shard")
		_, _, err := voxel.New(c.title, opts...).Run()
		o.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
	}
	id := o.rec.start(o.parent, "sweep.merge")
	merged, err := sweep.MergeFiles(paths)
	if err == nil {
		paths = append(paths, filepath.Join(dir, "merged.ckpt"))
		err = merged.WriteFile(paths[len(paths)-1])
	}
	o.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = o.rec.start(o.parent, "obs.export")
	err = exportReport(merged.Agg.Obs, dir)
	o.rec.end(id)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		rd.checkpointBytes += st.Size()
	}
	rd.fold(h, merged.Agg, merged.Agg.Obs)
	rd.digest = hex.EncodeToString(h.Sum(nil))
	return rd, nil
}

// exportReport writes the telemetry report as JSONL and CSV files.
func exportReport(rep *obs.Report, dir string) error {
	for _, e := range []struct {
		name  string
		write func(*os.File) error
	}{
		{"telemetry.jsonl", func(f *os.File) error { return rep.WriteJSONL(f) }},
		{"telemetry.csv", func(f *os.File) error { return rep.WriteCSV(f) }},
	} {
		f, err := os.Create(filepath.Join(dir, e.name))
		if err != nil {
			return err
		}
		if err := e.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fold adds one aggregate's trials to the round: failure accounting,
// simulated statistics, telemetry counters, and the digest, which covers
// every per-trial output in trial order.
func (rd *round) fold(h hash.Hash, agg *exp.Aggregate, rep *obs.Report) {
	for i := range agg.Failed {
		if rd.failure == "" {
			rd.failure = agg.Failed[i].Error()
		}
	}
	for ti, tr := range agg.Trials {
		rd.trials++
		if tr.Failed || !tr.Completed {
			rd.failed++
			if rd.failure == "" {
				rd.failure = fmt.Sprintf("trial %d: a session did not complete", ti)
			}
		}
		if tr.Failed {
			continue
		}
		rd.bufRatios = append(rd.bufRatios, tr.BufRatio)
		rd.bitrates = append(rd.bitrates, tr.AvgBitrate)
		rd.scores = append(rd.scores, tr.Scores...)
		rd.utilization = append(rd.utilization, tr.Utilization)
		for _, s := range tr.Sessions {
			played := time.Duration(len(s.Scores)) * video.SegmentDuration
			rd.virtualS += (s.StartupDelay + s.StallTime + played).Seconds()
		}
		hashFloats(h, tr.BufRatio, tr.AvgBitrate, float64(len(tr.Scores)))
		hashFloats(h, tr.Scores...)
		hashFloats(h, tr.Skipped, tr.Residual, float64(tr.Wasted),
			float64(tr.StartupDelay), float64(tr.FailedReqs))
	}
	if rep != nil {
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			rd.counters[c] += rep.Counter(c)
		}
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

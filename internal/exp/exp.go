// Package exp is the experiment harness: it assembles the full stack —
// simulator, trace-shaped path, QUIC* pair, origin server, player — runs
// repeated trials with the §5 trace-shifting procedure, and aggregates the
// paper's metrics (bufRatio, average bitrate, per-segment QoE scores,
// skipped-data fractions).
package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/player"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// System identifies a full client configuration (ABR + transport mode), in
// the paper's terms.
type System string

// The systems compared across the evaluation.
const (
	SysBolaQ        System = "BOLA/Q"
	SysBolaQStar    System = "BOLA/Q*"
	SysMPCQ         System = "MPC/Q"
	SysMPCQStar     System = "MPC/Q*"
	SysTputQ        System = "Tput/Q"
	SysTputQStar    System = "Tput/Q*"
	SysBeta         System = "BETA"
	SysBolaSSIM     System = "BOLA-SSIM"
	SysVoxel        System = "VOXEL"
	SysVoxelRel     System = "VOXEL-rel"     // partial reliability disabled (Fig. 18c,d)
	SysVoxelUntuned System = "VOXEL-untuned" // safety 1.0 (Fig. 17)
)

// Systems lists every system identifier newAlgorithm accepts, in the order
// the paper introduces them.
func Systems() []System {
	return []System{SysBolaQ, SysBolaQStar, SysMPCQ, SysMPCQStar, SysTputQ,
		SysTputQStar, SysBeta, SysBolaSSIM, SysVoxel, SysVoxelRel, SysVoxelUntuned}
}

// Config specifies one experiment cell.
type Config struct {
	Title          string
	System         System
	BufferSegments int
	Trace          *trace.Trace
	QueuePackets   int
	Trials         int
	Metric         qoe.Metric
	// Segments limits the clip length (0 = the full 75 segments).
	Segments int
	// CrossTraffic offers this much competing load (bps) through a fixed
	// LinkCapacity link instead of the trace (§5.1 cross-traffic trials).
	CrossTraffic float64
	LinkCapacity float64
	Seed         int64
	// MaxSimTime bounds one trial's virtual time (default 20× media).
	MaxSimTime time.Duration
	// CC selects the server-side congestion controller: "cubic" (default,
	// what the paper's QUIC* inherits) or "bbr" (the delay-based control
	// Appendix B names as future work).
	CC string
	// Impairment names a netem fault profile (clean / bursty / flaky-wifi /
	// handover-blackout) applied to the path. Any profile other than
	// clean/"" also arms the recovery stack: request deadlines and retries
	// in the HTTP client, idle timeout + keepalive + capped PTO backoff in
	// QUIC*. Empty keeps the trial bit-identical to the pre-impairment
	// harness.
	Impairment string
	// Failover adds a second origin server on its own path and blackholes
	// the primary path permanently at FailoverKillTime, exercising
	// idle-timeout detection and client failover mid-stream.
	Failover bool
	// Parallelism is the number of worker goroutines trials fan out across.
	// 0 and 1 run sequentially; negative means GOMAXPROCS. Each trial owns
	// its own simulated world, and results are written by trial index, so
	// aggregates are bit-identical to the sequential output for the same
	// seed at any setting.
	Parallelism int
	// Telemetry attaches a per-trial obs.Scope to every layer of the stack
	// and collects the per-trial reports into Aggregate.Obs. Recording never
	// schedules simulator events, so the metrics of a telemetered run are
	// bit-identical to an untelemetered one.
	Telemetry bool
	// TimelineCap overrides the per-trial event ring capacity
	// (obs.DefaultTimelineCap when zero). Only meaningful with Telemetry.
	TimelineCap int
	// Interrupt, when non-nil, aborts the run once the channel is closed
	// (e.g. a context's Done channel). Pending trials are skipped, left
	// zero-valued and contribute no samples; trials already in flight
	// notice the close at periodic virtual-time checkpoints and return early
	// with Completed=false, so even a blackholed or unbounded trial cannot
	// outlive its caller.
	Interrupt <-chan struct{}
	// Sessions is the number of concurrent video sessions per trial (swarm
	// mode). Each session is a full independent stack — QUIC* connection
	// pair, origin server, HTTP client, player, ABR — and all of them are
	// multiplexed through the one shared bottleneck path, optionally
	// alongside cross traffic. 0 and 1 both run a single session and are
	// bit-identical to each other. Per-session summaries land in
	// Trial.Sessions along with the trial's Jain fairness index and
	// bottleneck utilization.
	Sessions int
	// Invariants arms the cross-layer invariant checker (internal/invariant)
	// inside every trial's world: QUIC* packet and byte conservation,
	// reliable-stream contiguity, non-negative player buffer, monotone sim
	// clock, exactly-one Datagram.Done fate. A violation fails that trial
	// with a typed TrialError naming the broken rule; other trials keep
	// running. Off by default, and a disabled checker costs nothing on the
	// hot paths (nil receiver, one branch), so golden outputs are unchanged.
	Invariants bool
	// WatchdogWall bounds one trial's wall-clock runtime; a trial that
	// exceeds it fails with rule "watchdog.wall-budget" instead of hanging
	// the sweep. 0 means no wall budget.
	WatchdogWall time.Duration
	// WatchdogEvents bounds one trial's executed simulator events; a trial
	// that exceeds it fails with rule "watchdog.event-budget". This is the
	// budget that catches a zero-delay event storm, which burns events
	// without ever advancing virtual time. 0 means no event budget.
	WatchdogEvents uint64
	// Inject schedules a deliberate fault inside the trial world — "panic",
	// "invariant", or "spin", optionally suffixed "@trial" to target one
	// trial index — to exercise the failure pipeline end to end. Used by
	// tests and committed repro artifacts; empty in normal operation.
	Inject string
	// ShardIndex/ShardCount partition the trial set across processes:
	// shard i of n owns the trials whose index ≡ i (mod n) and skips the
	// rest, leaving their Trial slots zero-valued. Per-trial seeds and
	// trace shifts depend only on the trial index and the full Trials
	// count, so every shard computes exactly the trials the unsharded run
	// would, and sweep.MergeAggregates folds a complete shard set back into
	// an aggregate bit-identical to the single-process run. ShardCount 0
	// (or 1) means unsharded.
	ShardIndex int
	ShardCount int
}

// MaxSessions caps Config.Sessions: each session costs a full stack, and a
// larger swarm is almost certainly a misconfigured flag.
const MaxSessions = 512

func (c Config) withDefaults() Config {
	if c.System == "" {
		c.System = SysVoxel
	}
	if c.BufferSegments == 0 {
		c.BufferSegments = 7
	}
	if c.QueuePackets == 0 {
		c.QueuePackets = netem.DefaultQueuePackets
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks the user-facing fields — title, system, congestion
// controller, impairment profile, counts and bounds, shard coordinates —
// so CLIs can reject a bad flag, and decoders a bad file, with a message
// instead of a panic deep inside a trial.
func (c Config) Validate() error {
	if c.Title != "" {
		if _, err := video.Load(c.Title); err != nil {
			return fmt.Errorf("exp: %v (have %v)", err, video.AllTitles())
		}
	}
	if c.System != "" {
		known := false
		for _, s := range Systems() {
			if s == c.System {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("exp: unknown system %q (have %v)", c.System, Systems())
		}
	}
	if c.CC != "" && c.CC != "cubic" && c.CC != "bbr" {
		return fmt.Errorf("exp: unknown congestion controller %q (have cubic, bbr)", c.CC)
	}
	if _, _, err := netem.NewProfile(c.Impairment); err != nil {
		return err
	}
	// A negative count, rate or bound would be silently read as its default
	// or as nothing at all, and fingerprinted as the value given.
	for _, f := range []struct {
		name     string
		negative bool
		value    any
	}{
		{"trials", c.Trials < 0, c.Trials},
		{"buffer segments", c.BufferSegments < 0, c.BufferSegments},
		{"queue packets", c.QueuePackets < 0, c.QueuePackets},
		{"segments", c.Segments < 0, c.Segments},
		{"cross traffic", c.CrossTraffic < 0, c.CrossTraffic},
		{"link capacity", c.LinkCapacity < 0, c.LinkCapacity},
		{"max sim time", c.MaxSimTime < 0, c.MaxSimTime},
		{"watchdog wall budget", c.WatchdogWall < 0, c.WatchdogWall},
		{"timeline cap", c.TimelineCap < 0, c.TimelineCap},
	} {
		if f.negative {
			return fmt.Errorf("exp: %s %v is negative", f.name, f.value)
		}
	}
	if c.Sessions < 0 || c.Sessions > MaxSessions {
		return fmt.Errorf("exp: sessions %d out of range [0, %d]", c.Sessions, MaxSessions)
	}
	if _, _, err := parseInject(c.Inject); err != nil {
		return err
	}
	if c.ShardCount < 0 {
		return fmt.Errorf("exp: shard count %d is negative", c.ShardCount)
	}
	if c.ShardCount == 0 && c.ShardIndex != 0 {
		return fmt.Errorf("exp: shard index %d without a shard count", c.ShardIndex)
	}
	if c.ShardCount > 0 && (c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount) {
		return fmt.Errorf("exp: shard index %d out of range [0, %d)", c.ShardIndex, c.ShardCount)
	}
	return nil
}

// Owns reports whether this config's shard runs the given trial. An
// unsharded config owns every trial.
func (c Config) Owns(trial int) bool {
	if c.ShardCount <= 1 {
		return true
	}
	return trial%c.ShardCount == c.ShardIndex
}

// WithDefaults returns the config with the experiment layer's uniform
// defaults applied (system, buffer, queue, trials, seed) — the exact config
// an Aggregate and its TrialErrors are stamped with. Exported so the sweep
// engine can fingerprint and re-stamp checkpointed state consistently.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// sessions resolves the Sessions knob (0 and 1 both mean one session).
func (c Config) sessions() int {
	if c.Sessions <= 1 {
		return 1
	}
	return c.Sessions
}

// workers resolves the Parallelism knob to a concrete worker count.
func (c Config) workers() int {
	if c.Parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Parallelism == 0 {
		return 1
	}
	return c.Parallelism
}

// FailoverKillTime is when the Failover scenario blackholes the primary
// path for good.
const FailoverKillTime = 30 * time.Second

// SessionResult is one session's summary within a trial. Single-session
// trials have exactly one (identical to the trial-level fields); swarm
// trials have Config.Sessions of them, and the fairness metrics are
// computed over this unit.
type SessionResult struct {
	Session      int
	BufRatio     float64
	AvgBitrate   float64
	MeanScore    float64
	Scores       []float64
	Skipped      float64
	Residual     float64
	Wasted       int64
	StartupDelay time.Duration
	StallTime    time.Duration
	Completed    bool
	FailedReqs   int
}

// Trial is one playback run's summary. In swarm mode (Config.Sessions > 1)
// the scalar metrics fold the per-session results: means for the
// ratio/rate/score fields, sums for the byte and failure counters, and
// Completed only when every session finished. Scores concatenates the
// sessions' per-segment scores in session order.
type Trial struct {
	BufRatio     float64
	AvgBitrate   float64
	MeanScore    float64
	Scores       []float64
	Skipped      float64
	Residual     float64
	Wasted       int64
	StartupDelay time.Duration
	Completed    bool
	FailedReqs   int // requests abandoned after deadline/retry/failover
	// Sessions holds the per-session summaries (length max(1, Sessions)).
	Sessions []SessionResult
	// Jain is Jain's fairness index over the sessions' delivered bitrates:
	// 1.0 means a perfectly even split of the bottleneck, 1/n means one
	// session starved the rest. Always 1.0 for a single session.
	Jain float64
	// Utilization is the busy fraction of the shared bottleneck link from
	// trial start until the last session finished (video plus cross
	// traffic).
	Utilization float64
	// Obs is the first session's telemetry report (nil when
	// Config.Telemetry is off); SessionObs holds every session's report.
	// Obs aliases SessionObs[0], so JSON carries the report once, under
	// SessionObs, and loading a checkpoint sets the alias again.
	Obs        *obs.TrialReport `json:"-"`
	SessionObs []*obs.TrialReport
	// Failed marks a trial that died (panic, invariant violation, watchdog
	// budget) before producing results; the rest of the struct is zero and
	// the TrialError lives in Aggregate.Failed.
	Failed bool
}

// Ran reports whether the trial was run: it failed, or it produced at least
// one session's results. A slot no process reached — a peer shard's trial, or
// one an interrupted run never started — is zero and did not run.
func (t *Trial) Ran() bool { return t.Failed || len(t.Sessions) > 0 }

// Aggregate collects trials of one configuration.
type Aggregate struct {
	Config    Config
	Trials    []Trial
	BufRatios []float64
	Bitrates  []float64
	AllScores []float64
	// Obs merges the per-trial telemetry (nil when Config.Telemetry is off).
	Obs *obs.Report
	// Failed collects the trials that died, in trial-index order. A failed
	// trial keeps its (zero-valued, Failed-marked) Trial slot but contributes
	// no samples to BufRatios/Bitrates/AllScores, so survivors' statistics
	// are unpolluted.
	Failed []TrialError
}

// BufRatioP90 returns the 90th percentile bufRatio across trials (the
// paper's headline statistic).
func (a *Aggregate) BufRatioP90() float64 { return stats.Percentile(a.BufRatios, 90) }

// BufRatioMean returns the mean bufRatio.
func (a *Aggregate) BufRatioMean() float64 { return stats.Mean(a.BufRatios) }

// BitrateMean returns the mean of per-trial average bitrates (bps).
func (a *Aggregate) BitrateMean() float64 { return stats.Mean(a.Bitrates) }

// ScoreCDF returns the CDF over all streamed segments' scores.
func (a *Aggregate) ScoreCDF() stats.CDF { return stats.NewCDF(a.AllScores) }

// MeanScore returns the mean segment score across trials.
func (a *Aggregate) MeanScore() float64 { return stats.Mean(a.AllScores) }

// SessionScores returns the per-session mean-QoE vector in (trial,
// session) order — the unit the swarm fairness summaries quantify over.
func (a *Aggregate) SessionScores() []float64 {
	var out []float64
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			out = append(out, sr.MeanScore)
		}
	}
	return out
}

// SessionBitrates returns the per-session delivered bitrates (bps) in
// (trial, session) order.
func (a *Aggregate) SessionBitrates() []float64 {
	var out []float64
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			out = append(out, sr.AvgBitrate)
		}
	}
	return out
}

// SessionQoEP5 returns the 5th-percentile per-session mean QoE — the
// "worst user" statistic a shared bottleneck is judged by.
func (a *Aggregate) SessionQoEP5() float64 {
	return stats.Percentile(a.SessionScores(), 5)
}

// JainMean returns the mean per-trial Jain fairness index over delivered
// bitrate.
func (a *Aggregate) JainMean() float64 {
	xs := make([]float64, 0, len(a.Trials))
	for _, tr := range a.Trials {
		xs = append(xs, tr.Jain)
	}
	return stats.Mean(xs)
}

// UtilizationMean returns the mean bottleneck busy fraction across trials.
func (a *Aggregate) UtilizationMean() float64 {
	xs := make([]float64, 0, len(a.Trials))
	for _, tr := range a.Trials {
		xs = append(xs, tr.Utilization)
	}
	return stats.Mean(xs)
}

// TotalStall sums rebuffering time over every session of every trial.
func (a *Aggregate) TotalStall() time.Duration {
	var d time.Duration
	for _, tr := range a.Trials {
		for _, sr := range tr.Sessions {
			d += sr.StallTime
		}
	}
	return d
}

// Summary renders the headline statistics over the trials this config's
// shard owns, one per line — the block voxel-sim prints for a run and for a
// merged campaign alike.
func (a *Aggregate) Summary() string {
	var skipped, residual, startup []float64
	for ti, t := range a.Trials {
		if !a.Config.Owns(ti) {
			continue // sharded run: unowned slots are zero-valued
		}
		skipped = append(skipped, t.Skipped)
		residual = append(residual, t.Residual)
		startup = append(startup, t.StartupDelay.Seconds())
	}
	cdf := a.ScoreCDF()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-26s %v\n", "trials:", len(a.Trials))
	fmt.Fprintf(&sb, "%-26s %.2f%%\n", "bufRatio (p90):", 100*a.BufRatioP90())
	fmt.Fprintf(&sb, "%-26s %.2f%%\n", "bufRatio (mean):", 100*a.BufRatioMean())
	fmt.Fprintf(&sb, "%-26s %.2f Mbps\n", "avg bitrate:", a.BitrateMean()/1e6)
	fmt.Fprintf(&sb, "%-26s p10=%.4f median=%.4f p90=%.4f\n", a.Config.Metric.String()+" scores:",
		cdf.Quantile(0.1), cdf.Quantile(0.5), cdf.Quantile(0.9))
	fmt.Fprintf(&sb, "%-26s %.2f%%\n", "data skipped (mean):", 100*stats.Mean(skipped))
	fmt.Fprintf(&sb, "%-26s %.2f%%\n", "residual loss (mean):", 100*stats.Mean(residual))
	fmt.Fprintf(&sb, "%-26s %.2f s\n", "startup delay (mean):", stats.Mean(startup))
	return sb.String()
}

// newAlgorithm builds the ABR instance for a system and names the player
// mode it runs in.
func newAlgorithm(sys System) (abr.Algorithm, player.Mode) {
	switch sys {
	case SysBolaQ:
		return abr.NewBola(), player.ModeReliable
	case SysBolaQStar:
		return abr.NewBola(), player.ModeOpaque
	case SysMPCQ:
		return abr.NewMPC(), player.ModeReliable
	case SysMPCQStar:
		return abr.NewMPC(), player.ModeOpaque
	case SysTputQ:
		return abr.NewTput(), player.ModeReliable
	case SysTputQStar:
		return abr.NewTput(), player.ModeOpaque
	case SysBeta:
		return abr.NewBeta(), player.ModeBeta
	case SysBolaSSIM:
		return abr.NewBolaSSIM(), player.ModeVoxel
	case SysVoxel:
		return abr.NewABRStar(), player.ModeVoxel
	case SysVoxelRel:
		return abr.NewABRStar(), player.ModeVoxelReliable
	case SysVoxelUntuned:
		return abr.NewABRStarSafety(1.0), player.ModeVoxel
	default:
		panic(fmt.Sprintf("exp: unknown system %q", sys))
	}
}

// title is a prepared title: the synthesized video and the enriched
// manifest built from it. Preparation is a one-time offline cost (§4.1), so
// it happens here and nowhere else: dash.Build has synthesized every
// (segment, quality) by the time an entry is published, and from then on
// every trial, and every player of a swarm, only reads the pair.
type title struct {
	once sync.Once
	v    *video.Video
	m    *dash.Manifest
}

// titleKey is what preparation depends on.
type titleKey struct {
	name     string
	metric   qoe.Metric
	segments int // the clip length, normalised: never 0, never past the clip's end
}

// The title cache. Each entry carries its own sync.Once so concurrent
// trials only wait on same-key builds — a build for (BBB, SSIM) never blocks
// a cache hit for (ToS, VMAF).
var (
	titleMu sync.Mutex
	titles  = map[titleKey]*title{}
)

// prepared returns the shared prepared title for (name, metric, segments);
// segments ≤ 0 or past the end of the clip means the full clip.
func prepared(name string, metric qoe.Metric, segments int) *title {
	if segments <= 0 || segments > video.DefaultSegments {
		segments = video.DefaultSegments
	}
	key := titleKey{name, metric, segments}
	titleMu.Lock()
	e, ok := titles[key]
	if !ok {
		e = &title{}
		titles[key] = e
	}
	titleMu.Unlock()
	e.once.Do(func() {
		e.v = video.MustLoad(name)
		e.v.Segments = segments
		a := prep.NewAnalyzer()
		a.Metric = metric
		e.m = dash.Build(e.v, dash.BuildOptions{Voxel: true, PointsPerSegment: 12, Analyzer: a})
	})
	return e
}

// ManifestFor returns the enriched manifest of the prepared title (name,
// metric, segments), cached across experiments. Concurrent callers with the
// same key share one build; callers with different keys never block each
// other.
func ManifestFor(name string, metric qoe.Metric, segments int) *dash.Manifest {
	return prepared(name, metric, segments).m
}

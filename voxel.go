package voxel

import (
	"errors"
	"fmt"

	"voxel/internal/dash"
	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/survey"
	"voxel/internal/sweep"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// Re-exported domain types, so library consumers work with one import.
type (
	// Video is a title with its deterministic segment synthesizer.
	Video = video.Video
	// Quality indexes the Tab. 2 bitrate ladder (Q0–Q12).
	Quality = video.Quality
	// Segment is one 4-second piece of a title at one quality. A segment
	// handed out by a Video is shared and read-only, and so is the reference
	// graph under it: every segment has the same GOP, so a frame's Refs (and
	// the slices InboundRefs, TransitiveDependents, EvalOrder and Affected
	// return) are one array read by every segment of every title.
	Segment = video.Segment
	// Manifest is the (optionally VOXEL-enriched) DASH MPD.
	Manifest = dash.Manifest
	// Metric selects the QoE metric (SSIM, VMAF, PSNR).
	Metric = qoe.Metric
	// Trace is a bandwidth trace.
	Trace = trace.Trace
	// System names a full client configuration (ABR + transport).
	System = exp.System
	// Config specifies one experiment cell.
	Config = exp.Config
	// Aggregate holds the trials of one experiment cell.
	Aggregate = exp.Aggregate
	// Trial is one playback run's summary within an Aggregate.
	Trial = exp.Trial
	// SessionResult is one session's summary within a swarm-mode Trial
	// (see WithSessions).
	SessionResult = exp.SessionResult
	// TrialError is the structured failure record of one trial: a
	// recovered panic, a cross-layer invariant violation, or a breached
	// watchdog budget. The failing trial's slot in Aggregate.Trials stays
	// zero-valued with Failed set, the error lands in Aggregate.Failed (in
	// trial order), and the other trials of the sweep finish untouched.
	// Each record carries the post-defaulting Config, the trial index and
	// derived per-trial Seed, the swarm Session under construction (-1 once
	// the event loop was running), the virtual Clock at death, a Rule
	// classifying the failure ("panic", "error", "watchdog.wall-budget",
	// "watchdog.event-budget", or an invariant rule such as
	// "quic.byte-conservation"), the message, and the goroutine Stack for
	// panics. It implements error, so a failed trial surfaced through any
	// error-returning path can be inspected with errors.As — see
	// ExampleTrialError.
	TrialError = exp.TrialError
	// Clip is the clip-statistics input to RunSurvey.
	Clip = survey.Clip
	// Outcome is the user-study result RunSurvey returns.
	Outcome = survey.Outcome
	// Plan is the offline per-segment analysis result.
	Plan = prep.Plan
	// Summary is a sample summary (mean, percentiles, ...).
	Summary = stats.Summary
	// Report is the aggregated telemetry of one experiment cell (see
	// Session.Run and Config.Telemetry).
	Report = obs.Report
)

// Typed sentinel errors returned (wrapped) by the facade; test with
// errors.Is.
var (
	// ErrUnknownTitle reports a title outside the catalog.
	ErrUnknownTitle = errors.New("voxel: unknown title")
	// ErrUnknownTrace reports a trace name outside the canonical set.
	ErrUnknownTrace = errors.New("voxel: unknown trace")
	// ErrInvalidConfig reports a configuration that fails validation.
	ErrInvalidConfig = errors.New("voxel: invalid config")
)

// QoE metrics.
const (
	SSIM = qoe.SSIM
	VMAF = qoe.VMAF
	PSNR = qoe.PSNR
)

// The systems compared throughout the evaluation.
const (
	BOLA         = exp.SysBolaQ
	BOLAQuicStar = exp.SysBolaQStar
	MPC          = exp.SysMPCQ
	MPCQuicStar  = exp.SysMPCQStar
	Tput         = exp.SysTputQ
	BETA         = exp.SysBeta
	BOLASSIM     = exp.SysBolaSSIM
	VOXEL        = exp.SysVoxel
	VOXELRel     = exp.SysVoxelRel
	VOXELUntuned = exp.SysVoxelUntuned
)

// LoadVideo loads a catalog title (BBB, ED, Sintel, ToS, P1–P10). Unknown
// names return an error wrapping ErrUnknownTitle.
func LoadVideo(name string) (*Video, error) {
	v, err := video.Load(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownTitle, name, video.AllTitles())
	}
	return v, nil
}

// Titles lists the four canonical evaluation titles.
func Titles() []string { return video.TestTitles() }

// YouTubeTitles lists the ten Tab. 3 clips.
func YouTubeTitles() []string { return video.YouTubeTitles() }

// LoadTrace resolves a canonical trace by name: tmobile, verizon, att, 3g,
// fcc, wild. Unknown names return an error wrapping ErrUnknownTrace.
func LoadTrace(name string) (*Trace, error) {
	tr, err := trace.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownTrace, name, trace.Names())
	}
	return tr, nil
}

// TraceNames lists the canonical trace names.
func TraceNames() []string { return trace.Names() }

// PrepareManifest runs the §4.1 offline analysis for a title and returns
// the enriched manifest (pointsPerSegment ≤ 0 keeps the full QoE curves).
func PrepareManifest(v *Video, metric Metric, pointsPerSegment int) *Manifest {
	a := prep.NewAnalyzer()
	a.Metric = metric
	return dash.Build(v, dash.BuildOptions{
		Voxel:            true,
		PointsPerSegment: pointsPerSegment,
		Analyzer:         a,
	})
}

// AnalyzeSegment runs the offline frame-ranking analysis for one segment
// against a lower-bound score.
func AnalyzeSegment(s *Segment, lowerBound float64) Plan {
	return prep.NewAnalyzer().Analyze(s, lowerBound)
}

// DropTolerance returns, per segment of the title at quality q, the
// maximum fraction of frames droppable (under the inbound-reference
// ranking) while the SSIM stays at or above target — the Fig. 1 curves.
func DropTolerance(v *Video, q Quality, target float64) []float64 {
	a := prep.NewAnalyzer()
	out := make([]float64, v.Segments)
	for i := range out {
		out[i] = a.MaxDropFraction(v.Segment(i, q), prep.OrderByInboundRefs, target)
	}
	return out
}

// MergeAggregates folds the aggregates of a complete shard set (every
// shard of one campaign, each produced by a Session run with WithShard or
// a `voxel-sim -shard i/n` process) back into the aggregate the equivalent
// unsharded run would have produced, bit for bit: per-trial seeds and
// trace shifts depend only on the trial index and the full trial count,
// never on which shard ran the trial, so re-slotting the shards' results
// and re-folding reproduces the single-process output exactly (only the
// run-specific Stack text of failure records can differ). The merged
// aggregate's Config is normalized — shard coordinates, parallelism, and
// interrupt plumbing cleared. A single unsharded aggregate merges to
// itself. The shards may have been run at different shard counts (0/2,
// 1/4 and 3/4 is a complete set); incomplete — an interrupted shard's
// never-run trials are missing — overlapping, or configuration-mismatched
// shard sets return an error, exactly as `voxel-sim -merge` refuses the
// same shards' checkpoint files.
func MergeAggregates(shards []*Aggregate) (*Aggregate, error) {
	return sweep.MergeAggregates(shards)
}

// ImpairmentProfiles lists the canonical netem fault profiles accepted by
// Config.Impairment: clean, bursty, flaky-wifi, handover-blackout.
func ImpairmentProfiles() []string { return netem.Profiles() }

// Summarize computes summary statistics of a sample.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// RunSurvey evaluates the §5.3 user-study model on two streamed outcomes.
func RunSurvey(users int, seed int64, baseline, voxelClip Clip) Outcome {
	return survey.NewPanel(users, seed).Evaluate(baseline, voxelClip)
}

// PaperClips returns the paper's §5.3 baseline/VOXEL clip statistics.
func PaperClips() (baseline, voxelClip Clip) { return survey.PaperClips() }

// ClipFromAggregate derives survey-clip statistics from an experiment. An
// empty aggregate (no trials or no scored segments) yields the zero Clip
// rather than NaN fields that would poison RunSurvey's MOS arithmetic.
func ClipFromAggregate(a *Aggregate) survey.Clip {
	if a == nil || len(a.Trials) == 0 || len(a.AllScores) == 0 {
		return survey.Clip{}
	}
	scores := a.AllScores
	return survey.Clip{
		BufRatio:         stats.Mean(a.BufRatios),
		MeanScore:        stats.Mean(scores),
		ScoreStdDev:      stats.StdDev(scores),
		ArtifactFraction: residualMean(a),
	}
}

func residualMean(a *Aggregate) float64 {
	if a == nil || len(a.Trials) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(a.Trials))
	for _, t := range a.Trials {
		xs = append(xs, t.Residual)
	}
	return stats.Mean(xs)
}

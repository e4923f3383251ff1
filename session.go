package voxel

import (
	"context"
	"fmt"
	"time"

	"voxel/internal/exp"
	"voxel/internal/sweep"
)

// Session is a configured streaming experiment: the public entry point.
// Build one with New and functional options, then call Run:
//
//	sess := voxel.New("BBB",
//		voxel.WithSystem(voxel.VOXEL),
//		voxel.WithTraceName("verizon"),
//		voxel.WithTelemetry())
//	agg, report, err := sess.Run()
//
// The zero value is not usable; always construct through New. A Session is
// immutable after New and safe to Run multiple times (each Run executes the
// full trial set again, deterministically).
type Session struct {
	cfg     Config
	ctx     context.Context
	ckPath  string // checkpoint file; "" disables checkpoint/resume
	ckEvery int    // checkpoint every N completed trials (default 1)
	err     error  // first option error, surfaced by Run
}

// Option configures a Session.
type Option func(*Session)

// New builds a session for a catalog title. Option errors (e.g. an unknown
// trace name) and config validation are deferred to Run, so construction
// chains cleanly.
func New(title string, opts ...Option) *Session {
	s := &Session{cfg: Config{Title: title}}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithSystem selects the client system (ABR + transport mode). The default
// is the full VOXEL system.
func WithSystem(sys System) Option {
	return func(s *Session) { s.cfg.System = sys }
}

// WithTrace streams over the given bandwidth trace.
func WithTrace(tr *Trace) Option {
	return func(s *Session) { s.cfg.Trace = tr }
}

// WithTraceName resolves a canonical trace by name (tmobile, verizon, att,
// 3g, fcc, wild). An unknown name fails Run with ErrUnknownTrace.
func WithTraceName(name string) Option {
	return func(s *Session) {
		tr, err := LoadTrace(name)
		if err != nil {
			s.fail(err)
			return
		}
		s.cfg.Trace = tr
	}
}

// WithMetric scores segments with the given QoE metric (default SSIM).
func WithMetric(m Metric) Option {
	return func(s *Session) { s.cfg.Metric = m }
}

// WithImpairment applies a netem fault profile to the path (see
// ImpairmentProfiles). Unknown profiles fail Run with ErrInvalidConfig.
func WithImpairment(profile string) Option {
	return func(s *Session) { s.cfg.Impairment = profile }
}

// WithFailover adds a second origin server and blackholes the primary path
// mid-stream, exercising idle-timeout detection and client failover.
func WithFailover() Option {
	return func(s *Session) { s.cfg.Failover = true }
}

// WithTelemetry attaches a per-trial telemetry scope to every layer and
// makes Run return the collected Report. Metrics are unchanged: recording
// never perturbs the simulation.
func WithTelemetry() Option {
	return func(s *Session) { s.cfg.Telemetry = true }
}

// WithTimelineCap overrides the per-trial telemetry event ring capacity.
func WithTimelineCap(n int) Option {
	return func(s *Session) { s.cfg.TimelineCap = n }
}

// WithContext aborts the run between trials once ctx is done; Run then
// returns ctx's error alongside the partial aggregate, whose samples hold
// only the trials that ran.
func WithContext(ctx context.Context) Option {
	return func(s *Session) { s.ctx = ctx }
}

// WithBuffer sets the playback buffer capacity in segments (paper: 1–7).
func WithBuffer(segments int) Option {
	return func(s *Session) { s.cfg.BufferSegments = segments }
}

// WithTrials sets the number of trials (trace-shifted repetitions).
func WithTrials(n int) Option {
	return func(s *Session) { s.cfg.Trials = n }
}

// WithSegments limits the clip length (0 = the full 75 segments).
func WithSegments(n int) Option {
	return func(s *Session) { s.cfg.Segments = n }
}

// WithSeed sets the base random seed (default 1).
func WithSeed(seed int64) Option {
	return func(s *Session) { s.cfg.Seed = seed }
}

// WithParallelism fans trials out across n workers (negative = GOMAXPROCS).
// Aggregates are bit-identical at any setting.
func WithParallelism(n int) Option {
	return func(s *Session) { s.cfg.Parallelism = n }
}

// WithSessions runs n concurrent video sessions per trial (swarm mode),
// each a full independent client/server stack, all multiplexed through one
// shared bottleneck path. 0 and 1 both run a single session. Per-session
// results land in Trial.Sessions together with the trial's Jain fairness
// index and bottleneck utilization; n outside [0, exp.MaxSessions] fails
// Run with ErrInvalidConfig.
func WithSessions(n int) Option {
	return func(s *Session) { s.cfg.Sessions = n }
}

// WithCrossTraffic streams through a fixed-capacity link (bps) against the
// given offered competing load (bps) instead of a trace.
func WithCrossTraffic(offered, linkCapacity float64) Option {
	return func(s *Session) {
		s.cfg.CrossTraffic = offered
		s.cfg.LinkCapacity = linkCapacity
	}
}

// WithCC selects the server congestion controller: "cubic" (default) or
// "bbr". Any other name fails Run with ErrInvalidConfig.
func WithCC(name string) Option {
	return func(s *Session) { s.cfg.CC = name }
}

// WithQueue sets the bottleneck queue length in packets.
func WithQueue(packets int) Option {
	return func(s *Session) { s.cfg.QueuePackets = packets }
}

// WithMaxSimTime bounds one trial's virtual time (default 20× the media).
func WithMaxSimTime(d time.Duration) Option {
	return func(s *Session) { s.cfg.MaxSimTime = d }
}

// WithInvariants arms the cross-layer invariant checker in every trial
// world: QUIC* packet/byte conservation, reliable-stream contiguity,
// non-negative player buffer, monotone simulator clock, exactly-one
// datagram fate. A violation fails that trial with a TrialError in
// Aggregate.Failed; the other trials keep running. Off by default and free
// when off.
func WithInvariants() Option {
	return func(s *Session) { s.cfg.Invariants = true }
}

// WithWatchdog bounds each trial by wall-clock time and/or executed
// simulator events (0 disables that budget). A breached budget fails the
// trial with a "watchdog.*" TrialError instead of hanging the run — the
// only defense against a zero-delay event storm, which burns events
// without advancing virtual time.
func WithWatchdog(wall time.Duration, events uint64) Option {
	return func(s *Session) {
		s.cfg.WatchdogWall = wall
		s.cfg.WatchdogEvents = events
	}
}

// WithShard makes the session run shard index of a count-way campaign: it
// executes only the trials whose index ≡ index (mod count), leaving the
// other slots of the aggregate zero-valued. Trial seeds and trace shifts
// depend only on the trial index and the full trial count, so running
// every shard (in separate processes, on separate machines) and folding
// the aggregates with MergeAggregates reproduces the unsharded run
// bit for bit. index outside [0, count) fails Run with ErrInvalidConfig.
func WithShard(index, count int) Option {
	return func(s *Session) {
		s.cfg.ShardIndex = index
		s.cfg.ShardCount = count
	}
}

// WithCheckpoint persists completed-trial state to path after every
// `every` completed trials (≤ 0 means after every trial). Each write is
// atomic (temp file + fsync + rename), so a crash or SIGKILL at any
// instant leaves a complete checkpoint on disk; a subsequent Run pointed
// at the same path restores the finished trials, recomputes nothing, and
// produces the aggregate of an uninterrupted run. A checkpoint written by
// a different configuration (fingerprint mismatch) fails Run rather than
// being silently overwritten. The final checkpoint of a finished run is
// the shard's output file, consumable by `voxel-sim -merge`.
func WithCheckpoint(path string, every int) Option {
	return func(s *Session) {
		s.ckPath = path
		s.ckEvery = every
	}
}

// WithInject schedules a deliberate fault inside the trial world ("panic",
// "invariant", or "spin", optionally "@trial") to exercise the failure
// pipeline end to end. Meant for tests and repro artifacts.
func WithInject(spec string) Option {
	return func(s *Session) { s.cfg.Inject = spec }
}

func (s *Session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Config returns a copy of the experiment configuration the session will
// run (after New's options, before defaulting).
func (s *Session) Config() Config { return s.cfg }

// Run executes the full trial set and returns the aggregate plus the
// telemetry report (nil unless WithTelemetry was given). Identifier
// problems surface as typed sentinel errors: ErrUnknownTitle,
// ErrUnknownTrace, ErrInvalidConfig.
func (s *Session) Run() (*Aggregate, *Report, error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	cfg := s.cfg
	if err := validateConfig(cfg); err != nil {
		return nil, nil, err
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, nil, err
		}
		cfg.Interrupt = s.ctx.Done()
	}
	var agg *Aggregate
	if s.ckPath != "" {
		res, err := sweep.Run(cfg, sweep.Options{Checkpoint: s.ckPath, Every: s.ckEvery})
		if err != nil {
			return nil, nil, err
		}
		agg = res.Agg
	} else {
		agg = exp.Run(cfg)
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		return agg, agg.Obs, s.ctx.Err()
	}
	return agg, agg.Obs, nil
}

// validateConfig maps identifier problems to the facade's typed errors.
func validateConfig(cfg Config) error {
	if cfg.Title == "" {
		return fmt.Errorf("%w: missing title", ErrInvalidConfig)
	}
	if _, err := LoadVideo(cfg.Title); err != nil {
		return err // already wraps ErrUnknownTitle
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return nil
}

package exp

import (
	"fmt"
	"time"

	"voxel/internal/cc"
	"voxel/internal/crosstraffic"
	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/player"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/stats"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// world is one trial's simulated universe: a seeded simulator, the one
// bottleneck path, and N full session stacks multiplexed through it — a
// single-session trial is simply N = 1. Its life is build → run → harvest.
// The order in which build touches the simulator (scopes, path, cross
// traffic, impairments, then each session's connections, origin, player) is
// the determinism contract: every golden byte depends on it.
type world struct {
	cfg   Config
	trial int
	seed  int64
	shift time.Duration // this trial's offset into the trace (§5 trace shifting)
	// session is the session under construction, or -1: once the loop runs a
	// failure is not attributable to one session from outside the world.
	session int
	// recovered arms the recovery stack — request deadlines and retries in
	// the HTTP client, idle timeout + keepalive + capped PTO backoff in
	// QUIC* — for any fault profile other than clean, and for failover.
	recovered bool

	s *sim.Sim
	// man and video are the prepared title, shared read-only with every
	// world of the same (title, metric, clip length).
	man     *dash.Manifest
	video   *video.Video
	path    *netem.Path // shared by all sessions: its downlink is the contended queue
	gen     *crosstraffic.Generator
	scopes  []*obs.Scope // one per session; nil entries when telemetry is off
	players []*player.Player

	// running counts sessions still playing. The bottleneck's busy time is
	// snapshotted whenever one finishes; the last snapshot bounds the
	// utilization window so post-playback cross traffic doesn't dilute it.
	running                  int
	lastDone, busyAtLastDone sim.Time
}

// newWorld returns trial's world, unbuilt: its seed, trace shift and
// simulator, and the prepared title it will read.
func newWorld(cfg Config, trial int) *world {
	w := &world{cfg: cfg, trial: trial, seed: TrialSeed(cfg.Seed, trial), session: -1}
	t := prepared(cfg.Title, cfg.Metric, cfg.Segments)
	w.man, w.video = t.m, t.v
	if cfg.Trace != nil && cfg.Trials > 1 {
		w.shift = cfg.Trace.Duration() * time.Duration(trial) / time.Duration(cfg.Trials)
	}
	w.recovered = cfg.Failover || (cfg.Impairment != "" && cfg.Impairment != netem.ProfileClean)
	w.s = sim.New(w.seed)
	return w
}

// runTrial executes one trial world. A failure — recovered panic, invariant
// violation, setup error, or watchdog budget — returns a zero Trial (marked
// Failed) plus the TrialError; the caller's other trials are untouched.
func runTrial(cfg Config, trial int) (tr Trial, terr *TrialError) {
	w := newWorld(cfg, trial)
	defer func() {
		if r := recover(); r != nil {
			// The kernel may have died mid-event; it is not released.
			tr, terr = Trial{Failed: true}, w.fromPanic(r)
		}
	}()
	if terr = w.build(); terr == nil {
		terr = w.run()
	}
	if terr != nil {
		tr = Trial{Failed: true}
	} else {
		tr = w.harvest()
	}
	// Results and errors hold values read off the world, never the world:
	// its kernel goes to the next trial.
	w.s.Release()
	return tr, terr
}

// build assembles the topology and every session stack.
func (w *world) build() *TrialError {
	cfg, s := w.cfg, w.s
	if cfg.Invariants {
		s.SetChecker(invariant.New())
	}
	n := cfg.sessions()
	// One scope per session: each trial's world is single-threaded, so
	// event sequence numbers are deterministic even under parallel trial
	// fan-out, and per-session scopes keep swarm telemetry attributable.
	w.scopes = make([]*obs.Scope, n)
	if cfg.Telemetry {
		for i := range w.scopes {
			w.scopes[i] = obs.NewScope(func() time.Duration { return time.Duration(s.Now()) },
				obs.Options{TimelineCap: cfg.TimelineCap})
		}
	}
	w.path = w.newPath()
	if cfg.CrossTraffic > 0 {
		w.gen = crosstraffic.New(s, w.path, cfg.CrossTraffic)
		w.gen.Start()
	}
	if err := w.impairPrimary(); err != nil {
		return w.errf("error", "impairment profile: %v", err)
	}
	w.players = make([]*player.Player, n)
	w.running = n
	for w.session = 0; w.session < n; w.session++ {
		if terr := w.addSession(w.session); terr != nil {
			return terr
		}
	}
	w.session = -1
	w.inject()
	return nil
}

// newPath assembles one server↔client path per the config's shaping knobs.
func (w *world) newPath() *netem.Path {
	cfg := w.cfg
	if cfg.CrossTraffic > 0 {
		capacity := cfg.LinkCapacity
		if capacity <= 0 {
			capacity = 20e6
		}
		secs := int((w.man.Duration()*30)/time.Second) + 60
		return netem.NewPath(w.s, trace.Constant("link", capacity, secs), cfg.QueuePackets)
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.Constant("default", 10e6, 600)
	}
	return netem.NewPath(w.s, tr.Shifted(w.shift), cfg.QueuePackets)
}

// impairPrimary applies the config's fault profile (a no-op for clean) to
// the shared path. In the failover scenario the path additionally goes dark
// for good mid-stream, and the profile's impairments — the client's flaky
// last mile — ride on top in both directions.
func (w *world) impairPrimary() error {
	if !w.cfg.Failover {
		return netem.ApplyProfile(w.path, w.cfg.Impairment, w.seed+0x1000)
	}
	kill := netem.Blackout{Windows: []netem.Window{{Start: FailoverKillTime, End: 1 << 62}}}
	down, up, err := netem.NewProfile(w.cfg.Impairment)
	if err != nil {
		return err
	}
	dc, uc := netem.Chain{kill}, netem.Chain{kill}
	if down != nil {
		dc = append(dc, down)
	}
	if up != nil {
		uc = append(uc, up)
	}
	w.path.Down.Impair(dc, w.seed+0x1000)
	w.path.Up.Impair(uc, w.seed+0x1000+0x9E3779B9)
	return nil
}

// addSession builds session si's full stack — QUIC* pair, origin server,
// ABR, player — over the shared path and starts it playing.
func (w *world) addSession(si int) *TrialError {
	cfg, scope := w.cfg, w.scopes[si]
	var clientCfg, serverCfg quic.Config
	clientCfg.Obs = scope
	serverCfg.Obs = scope
	if cfg.CC == "bbr" {
		serverCfg.Controller = cc.NewBBRLite() // controllers hold per-conn state
	}
	if w.recovered {
		// Survive outages instead of wedging: an idle timeout arms keep-alive
		// on the client, capped PTO backoff on both sides and the HTTP
		// client's deadline and retries (quic.Config.IdleTimeout), and tears
		// a connection down only after a long silence. The failover scenario
		// uses a short idle timeout on the primary so origin death is
		// detected within seconds.
		clientCfg.IdleTimeout = 30 * time.Second
		serverCfg.IdleTimeout = 60 * time.Second
		if cfg.Failover {
			clientCfg.IdleTimeout = 2 * time.Second
		}
	}
	clientConn, serverConn := quic.NewPair(w.s, w.path, clientCfg, serverCfg)
	if _, err := server.New(serverConn, w.man, httpsim.ServerOptions{}); err != nil {
		return w.errf("error", "origin server: %v", err)
	}

	alg, mode := newAlgorithm(cfg.System)
	pcfg := player.Config{
		Algorithm:      alg,
		Mode:           mode,
		BufferSegments: cfg.BufferSegments,
		Metric:         cfg.Metric,
		Obs:            scope,
	}
	if cfg.Failover {
		backup, terr := w.backupOrigin(si, clientCfg, serverCfg)
		if terr != nil {
			return terr
		}
		pcfg.FailoverConns = []*quic.Conn{backup}
	}
	pl := player.New(w.s, clientConn, w.video, w.man, pcfg)
	pl.Run(func() {
		w.running--
		w.lastDone = w.s.Now()
		w.busyAtLastDone = w.path.Down.Stats().BusyTime
	})
	w.players[si] = pl
	return nil
}

// backupOrigin gives session si a second origin on its own path: the same
// shaping and the same impairment profile with an independent fault
// schedule — the backup origin still sits behind the client's last mile.
func (w *world) backupOrigin(si int, clientCfg, serverCfg quic.Config) (*quic.Conn, *TrialError) {
	path := w.newPath()
	if err := netem.ApplyProfile(path, w.cfg.Impairment, w.seed+0x2000+int64(si)*0x9E37); err != nil {
		return nil, w.errf("error", "backup impairment profile: %v", err)
	}
	clientCfg.IdleTimeout = 30 * time.Second
	if w.cfg.CC == "bbr" {
		serverCfg.Controller = cc.NewBBRLite()
	}
	clientConn, serverConn := quic.NewPair(w.s, path, clientCfg, serverCfg)
	if _, err := server.New(serverConn, w.man, httpsim.ServerOptions{}); err != nil {
		return nil, w.errf("error", "backup origin server: %v", err)
	}
	return clientConn, nil
}

// inject schedules the config's deliberate fault, if it targets this trial.
func (w *world) inject() {
	kind, ok := w.cfg.injectFor(w.trial)
	if !ok {
		return
	}
	s, at := w.s, sim.Time(injectTime)
	switch kind {
	case injectPanic:
		s.Schedule(at, func() {
			panic(fmt.Sprintf("injected fault (trial %d, seed %d)", w.trial, w.seed))
		})
	case injectInvariant:
		s.Schedule(at, func() {
			panic(&invariant.Violation{Rule: invariant.ExpInjectedFault,
				Detail: fmt.Sprintf("deliberate violation (trial %d, seed %d)", w.trial, w.seed)})
		})
	case injectSpin:
		// Zero-delay event storm: virtual time freezes while the event
		// count races — exactly the failure mode only the watchdog's
		// event budget can catch.
		var spin func()
		spin = func() { s.Schedule(0, spin) }
		s.Schedule(at, spin)
	}
}

// interruptCheckpoint is how often (in virtual time) run comes up for air
// to poll Config.Interrupt and the watchdog budgets. Slicing the event loop
// into checkpoints executes the exact same events in the same order as one
// uninterrupted call, so results do not depend on it; it only bounds how
// much virtual time a cancellation can lag.
const interruptCheckpoint = time.Second

// watchdogSliceEvents caps the events one checkpoint slice may execute, so
// even a zero-delay event storm — which never lets the clock reach the next
// checkpoint — yields control often enough for the polls below to run.
const watchdogSliceEvents = 1 << 21

// run is the one event loop: advance to the next checkpoint (or until the
// slice's event cap), then poll the event budget, the wall budget and the
// interrupt channel. An unarmed budget is zero and an unarmed Interrupt is
// a nil channel, so each poll is a no-op for a plain trial.
func (w *world) run() *TrialError {
	cfg, s := w.cfg, w.s
	limit := cfg.MaxSimTime
	if limit == 0 {
		limit = 20 * w.man.Duration()
	}
	var wallStart time.Time
	if cfg.WatchdogWall > 0 {
		//voxel:det-ok the wall watchdog measures real elapsed time by design; it never feeds trial results
		wallStart = time.Now()
	}
	startExec := s.Executed()
	aborted := false
	for s.Now() < limit && !aborted {
		next := min(s.Now()+interruptCheckpoint, limit)
		if s.Pending() == 0 {
			next = limit // queue drained early: fast-forward the clock
		}
		slice := uint64(watchdogSliceEvents)
		if cfg.WatchdogEvents > 0 {
			slice = min(slice, cfg.WatchdogEvents-(s.Executed()-startExec))
		}
		s.RunUntilBudget(next, slice)
		if n := s.Executed() - startExec; cfg.WatchdogEvents > 0 && n >= cfg.WatchdogEvents {
			return w.errf("watchdog.event-budget", "trial executed %d events (budget %d) at virtual %v",
				n, cfg.WatchdogEvents, time.Duration(s.Now()))
		}
		if cfg.WatchdogWall > 0 {
			//voxel:det-ok the wall watchdog measures real elapsed time by design; it never feeds trial results
			if elapsed := time.Since(wallStart); elapsed > cfg.WatchdogWall {
				return w.errf("watchdog.wall-budget", "trial ran %v wall (budget %v) at virtual %v",
					elapsed.Round(time.Millisecond), cfg.WatchdogWall, time.Duration(s.Now()))
			}
		}
		aborted = cfg.interrupted()
	}
	if w.gen != nil {
		w.gen.Stop()
	}
	if w.running > 0 {
		// Some session never finished (safety limit or interrupt): the
		// utilization window extends to wherever the run stopped.
		w.lastDone = s.Now()
		w.busyAtLastDone = w.path.Down.Stats().BusyTime
	}
	return nil
}

// harvest reads the finished world back into a Trial.
func (w *world) harvest() Trial {
	man := w.man
	sessions := make([]SessionResult, len(w.players))
	for si, pl := range w.players {
		res := pl.Results()
		sr := SessionResult{
			Session:      si,
			BufRatio:     res.BufRatio(),
			AvgBitrate:   res.AvgBitrate(),
			MeanScore:    res.MeanScore(),
			Scores:       res.Scores(),
			Skipped:      res.SkippedFraction(),
			Residual:     res.ResidualLossFraction(),
			Wasted:       res.BytesWasted,
			StartupDelay: res.StartupDelay,
			StallTime:    res.StallTime,
			Completed:    pl.Done(),
			FailedReqs:   res.FailedRequests,
		}
		if !pl.Done() {
			// The run hit the safety limit: treat all remaining media time as
			// stall so wedged configurations show up as terrible, not absent.
			played := time.Duration(len(res.Segments)) * man.SegmentDuration
			if missing := man.Duration() - played; missing > 0 {
				sr.BufRatio = (res.StallTime + missing).Seconds() / man.Duration().Seconds()
			}
		}
		sessions[si] = sr
	}
	tr := foldSessions(sessions)
	if w.lastDone > 0 {
		tr.Utilization = float64(w.busyAtLastDone) / float64(w.lastDone)
	}
	if w.cfg.Telemetry {
		tr.SessionObs = make([]*obs.TrialReport, len(w.scopes))
		for si, scope := range w.scopes {
			rep := scope.TrialReport()
			rep.Session = si
			tr.SessionObs[si] = rep
		}
		tr.Obs = tr.SessionObs[0]
	}
	return tr
}

// foldSessions collapses the per-session results into the trial-level
// scalars: means for the ratio/rate fields, sums for byte and failure
// counters, concatenated scores. For one session the fold is the identity.
func foldSessions(sessions []SessionResult) Trial {
	tr := Trial{Sessions: sessions, Completed: true}
	var bitrates []float64
	var startup time.Duration
	for _, sr := range sessions {
		tr.BufRatio += sr.BufRatio
		tr.AvgBitrate += sr.AvgBitrate
		tr.Skipped += sr.Skipped
		tr.Residual += sr.Residual
		tr.Wasted += sr.Wasted
		tr.FailedReqs += sr.FailedReqs
		tr.Scores = append(tr.Scores, sr.Scores...)
		startup += sr.StartupDelay
		if !sr.Completed {
			tr.Completed = false
		}
		bitrates = append(bitrates, sr.AvgBitrate)
	}
	inv := 1 / float64(len(sessions))
	tr.BufRatio *= inv
	tr.AvgBitrate *= inv
	tr.Skipped *= inv
	tr.Residual *= inv
	tr.StartupDelay = time.Duration(float64(startup) * inv)
	tr.MeanScore = stats.Mean(tr.Scores)
	tr.Jain = stats.JainIndex(bitrates)
	return tr
}

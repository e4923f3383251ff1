// Package chaos is the randomized fuzz campaign over the full experiment
// stack. It sweeps (configuration × impairment × seed) tuples with the
// cross-layer invariant checker and trial watchdog armed, and when a tuple
// fails it shrinks the case to a minimal JSON crash artifact (exp.Artifact)
// replayable with `voxel-sim -repro file.json`.
//
// Everything here is deterministic: tuples come from a seeded generator,
// each trial world is a deterministic simulation, and the shrinker only
// keeps a reduction when the re-run fails with the same rule — so a
// campaign, its failures, and its shrunk artifacts are all reproducible
// from the campaign seed alone.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"voxel/internal/exp"
	"voxel/internal/netem"
	"voxel/internal/qoe"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// RandomConfig draws one fuzz tuple, with invariants and both watchdog
// budgets armed. The distribution is tilted toward fast cases — short
// clips, bounded virtual time, mostly single-session — so a campaign gets
// through many tuples, while still visiting every system, trace, impairment
// profile, failover, swarm, and cross-traffic corner with some probability.
func RandomConfig(rng *rand.Rand) exp.Config {
	titles := video.AllTitles()
	systems := exp.Systems()
	c := exp.Config{
		Title:          titles[rng.Intn(len(titles))],
		System:         systems[rng.Intn(len(systems))],
		BufferSegments: 4 + rng.Intn(6),
		Segments:       4 + rng.Intn(7),
		Trials:         1 + rng.Intn(2),
		Seed:           1 + rng.Int63n(1<<30),
		Sessions:       1,
		// Bound virtual time well below the harness default (20× media):
		// a wedged-but-legal tuple costs seconds, not minutes, and a truly
		// stuck one is the watchdog's job.
		MaxSimTime:     120 * time.Second,
		Invariants:     true,
		WatchdogWall:   exp.DefaultWatchdogWall,
		WatchdogEvents: exp.DefaultWatchdogEvents,
	}
	c.Metric = []qoe.Metric{qoe.SSIM, qoe.VMAF, qoe.PSNR}[rng.Intn(3)]
	if rng.Intn(5) == 0 {
		c.CrossTraffic = (1 + 9*rng.Float64()) * 1e6
		c.LinkCapacity = (10 + 10*rng.Float64()) * 1e6
	} else {
		names := trace.Names()
		c.Trace, _ = trace.ByName(names[rng.Intn(len(names))]) // Names lists ByName's keys
	}
	profiles := netem.Profiles()
	c.Impairment = profiles[rng.Intn(len(profiles))]
	if rng.Intn(4) == 0 {
		c.Sessions = 2 + rng.Intn(3)
	}
	if rng.Intn(6) == 0 {
		c.Failover = true
	}
	if rng.Intn(4) == 0 {
		c.CC = "bbr"
	}
	return c
}

// Reproduces runs cfg exactly as given and returns its first trial failure
// (nil when every trial survived), and whether that failure breaks the
// given rule (any failure, when rule is empty). This is both the shrinker's
// keep/revert test and `voxel-sim -repro`'s verdict.
func Reproduces(cfg exp.Config, rule string) (bool, *exp.TrialError) {
	agg := exp.Run(cfg)
	if len(agg.Failed) == 0 {
		return false, nil
	}
	te := &agg.Failed[0]
	return rule == "" || te.Rule == rule, te
}

// Shrink minimizes the config of a failure along a fixed ladder — drop the
// failover origin, drop the impairment profile, collapse the swarm to one
// session, collapse the sweep to the one failing trial (rebasing the seed
// so the same world is built), halve the clip, then walk the seed toward 1
// — keeping each reduction only if the re-run fails with the same rule. It
// returns the last failure that reproduced, whose Config is the minimal
// one. The optional log receives one line per attempted step.
func Shrink(te *exp.TrialError, log io.Writer) *exp.TrialError {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	try := func(step string, mutate func(*exp.Config)) bool {
		cand := te.Config
		mutate(&cand)
		ok, got := Reproduces(cand, te.Rule)
		if !ok {
			logf("shrink: %-16s kept previous (no longer reproduces)", step)
			return false
		}
		// The failing trial index can move when the sweep shrinks; got
		// names the trial that actually fails now.
		te = got
		logf("shrink: %-16s still fails (%s)", step, te.Rule)
		return true
	}
	if te.Config.Failover {
		try("drop-failover", func(c *exp.Config) { c.Failover = false })
	}
	if te.Config.Impairment != "" {
		try("drop-impairment", func(c *exp.Config) { c.Impairment = "" })
	}
	if te.Config.Sessions > 1 {
		try("one-session", func(c *exp.Config) { c.Sessions = 1 })
	}
	if te.Config.Trials > 1 {
		try("one-trial", func(c *exp.Config) {
			c.Seed = exp.TrialSeed(c.Seed, te.Trial)
			c.Trials = 1
		})
	}
	for te.Config.Segments > 2 {
		if !try("halve-segments", func(c *exp.Config) { c.Segments /= 2 }) {
			break
		}
	}
	for te.Config.Seed > 1 {
		if !try("halve-seed", func(c *exp.Config) { c.Seed /= 2 }) {
			break
		}
	}
	return te
}

// Campaign sweeps n random tuples from the campaign seed, stopping at the
// first failure. It returns the shrunk failure's artifact and the original
// failure, or (nil, nil) when every tuple survived. The optional log
// receives one line per tuple plus the shrink trace.
func Campaign(n int, seed int64, log io.Writer) (*exp.Artifact, *exp.TrialError) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		cfg := RandomConfig(rng)
		_, te := Reproduces(cfg, "")
		if te == nil {
			var traceName string
			if cfg.Trace != nil {
				traceName, _ = trace.CanonicalName(cfg.Trace)
			}
			logf("tuple %3d: ok (%s/%s trace=%s impair=%s seed=%d)",
				i, cfg.Title, cfg.System, traceName, cfg.Impairment, cfg.Seed)
			continue
		}
		logf("tuple %3d: FAILED %s — %s", i, te.Rule, te.Msg)
		return Shrink(te, log).Artifact(), te
	}
	return nil, nil
}

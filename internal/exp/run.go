package exp

import (
	"sync"
	"sync/atomic"

	"voxel/internal/obs"
)

// Run executes all trials of a configuration, fanning them out across
// cfg.Parallelism workers. Trials are independent by construction (each owns
// its own world), and results land by trial index, so the aggregate is
// bit-identical to a sequential run. A sharded config (ShardCount > 1) runs
// only its owned trials; the other slots stay zero-valued and the
// aggregate's samples cover the owned trials only.
func Run(cfg Config) *Aggregate {
	return runAll([]Config{cfg}, cfg.workers())[0]
}

// RunMatrix runs one configuration per system and returns them keyed by
// system — the shape most figures need. All (system, trial) pairs share one
// base.Parallelism-wide worker pool, so a matrix of short configs still
// fills every worker.
func RunMatrix(base Config, systems []System) map[System]*Aggregate {
	cfgs := make([]Config, len(systems))
	for i, sys := range systems {
		cfgs[i] = base
		cfgs[i].System = sys
	}
	aggs := runAll(cfgs, base.workers())
	out := make(map[System]*Aggregate, len(systems))
	for i, sys := range systems {
		out[sys] = aggs[i]
	}
	return out
}

// runAll is the retaining sink over the executor: store every result by
// (config, trial) index, then fold each config once.
func runAll(cfgs []Config, workers int) []*Aggregate {
	trials := make([][]Trial, len(cfgs))
	fails := make([][]*TrialError, len(cfgs))
	for ci, c := range cfgs {
		n := c.withDefaults().Trials
		trials[ci], fails[ci] = make([]Trial, n), make([]*TrialError, n)
	}
	// The sink never fails, so neither does the run.
	_ = execute(cfgs, workers, nil, func(ci, ti int, tr Trial, te *TrialError) error {
		trials[ci][ti], fails[ci][ti] = tr, te
		return nil
	})
	out := make([]*Aggregate, len(cfgs))
	for ci := range cfgs {
		out[ci] = Assemble(cfgs[ci], trials[ci], fails[ci])
	}
	return out
}

// TrialFunc receives one completed trial: its index, its result, and (for a
// failed trial) the structured error. The harness delivers completions in
// strictly increasing trial order and one at a time, regardless of how many
// workers run — so a checkpoint writer or a streaming fold needs no
// reordering or locking of its own, and order-sensitive accumulations
// (float sums) stay deterministic at any parallelism. A non-nil error stops
// the run: no further trial is started or delivered.
type TrialFunc func(trial int, tr Trial, te *TrialError) error

// RunPartial runs the trials of cfg that the config's shard owns and that
// skip does not exclude (nil skips nothing), handing each result to fn
// exactly once, in trial order, and retaining none of them. It returns fn's
// first error. This is the resumable, bounded-memory core under Run: a
// caller that stores what fn receives by trial index, fills the skipped
// slots from a checkpoint and calls Assemble gets exactly Run's aggregate.
func RunPartial(cfg Config, skip func(trial int) bool, fn TrialFunc) error {
	var skipAt func(ci, ti int) bool
	if skip != nil {
		skipAt = func(_, ti int) bool { return skip(ti) }
	}
	return execute([]Config{cfg}, cfg.workers(), skipAt,
		func(_, ti int, tr Trial, te *TrialError) error { return fn(ti, tr, te) })
}

// TrialSeed derives trial j's world seed from the config seed. Exported so
// the chaos shrinker can collapse a multi-trial failure to a single-trial
// artifact that builds the exact same world.
func TrialSeed(base int64, trial int) int64 { return base + int64(trial)*7919 }

// execute is the one executor: every owned, unskipped (config, trial) cell
// of cfgs (defaulted in place) runs on one pool of workers, and every result
// passes through one stream on the caller's goroutine — FailureHook for a
// failed trial, then sink — in (config, trial) order. The run stops at the
// next trial boundary when the config's Interrupt closes or sink returns an
// error: cells not yet started are never run nor delivered, and execute
// returns that error.
func execute(cfgs []Config, workers int, skip func(ci, ti int) bool,
	sink func(ci, ti int, tr Trial, te *TrialError) error) error {
	type outcome struct {
		tr  Trial
		te  *TrialError
		ran bool // false: stopped before it started; pass over silently
	}
	type cell struct {
		ci, ti int
		out    chan outcome
	}
	var cells []cell
	for ci := range cfgs {
		cfgs[ci] = cfgs[ci].withDefaults()
		for ti := 0; ti < cfgs[ci].Trials; ti++ {
			if cfgs[ci].Owns(ti) && (skip == nil || !skip(ci, ti)) {
				cells = append(cells, cell{ci: ci, ti: ti})
			}
		}
	}
	workers = min(workers, len(cells))
	// Each cell goes to the workers and, in the same order, to the stream,
	// which waits on the cell's own result. The stream's buffer bounds how
	// many finished results a slow trial can hold up behind it.
	todo := make(chan cell)
	stream := make(chan cell, 4*workers)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for _, c := range cells {
			c.out = make(chan outcome, 1)
			stream <- c
			todo <- c
		}
		close(stream)
		close(todo)
	}()
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for c := range todo {
				var o outcome
				if cfg := cfgs[c.ci]; !stopped.Load() && !cfg.interrupted() {
					o.tr, o.te = runTrial(cfg, c.ti)
					o.ran = true
				}
				c.out <- o
			}
		}()
	}
	var err error
	for c := range stream {
		o := <-c.out
		if !o.ran || err != nil {
			continue
		}
		if o.te != nil && FailureHook != nil {
			FailureHook(o.te)
		}
		if err = sink(c.ci, c.ti, o.tr, o.te); err != nil {
			stopped.Store(true)
		}
	}
	wg.Wait()
	return err
}

// interrupted polls Config.Interrupt; a nil channel is never closed.
func (c Config) interrupted() bool {
	select {
	case <-c.Interrupt:
		return true
	default:
		return false
	}
}

// Assemble folds raw per-trial results into an Aggregate: samples in trial
// order (owned trials only), failures in trial order, telemetry merged in
// (trial, session) order. It is the one fold — a live run, a resumed run
// and a shard merge all end here — and a pure deterministic function of its
// inputs, which is what makes sharded, checkpointed and resumed sweeps
// reproduce a single-process aggregate bit for bit. fails may be shorter
// than trials (nil: no failures). cfg is defaulted before stamping.
func Assemble(cfg Config, trials []Trial, fails []*TrialError) *Aggregate {
	c := cfg.withDefaults()
	agg := &Aggregate{Config: c, Trials: trials}
	var cells [][]*obs.TrialReport
	if c.Telemetry {
		cells = make([][]*obs.TrialReport, len(trials))
	}
	for ti, tr := range trials {
		if !c.Owns(ti) {
			continue // an unowned slot is absent, not a zero sample
		}
		var te *TrialError
		if ti < len(fails) {
			te = fails[ti]
		}
		if c.Telemetry {
			cells[ti] = tr.SessionObs
			if te != nil && cells[ti] == nil {
				// A failed trial never snapshotted its scopes; substitute an
				// explicit failed-marker report so exports keep one entry per
				// trial instead of silently skipping the slot.
				cells[ti] = []*obs.TrialReport{obs.FailedTrialReport(te.Clock)}
			}
		}
		if te != nil {
			agg.Failed = append(agg.Failed, *te)
			continue
		}
		agg.BufRatios = append(agg.BufRatios, tr.BufRatio)
		agg.Bitrates = append(agg.Bitrates, tr.AvgBitrate)
		agg.AllScores = append(agg.AllScores, tr.Scores...)
	}
	if c.Telemetry {
		agg.Obs = obs.MergeSessions(cells)
		if c.ShardCount > 1 {
			// Tag per-shard telemetry so shard export files are
			// self-describing; merged/unsharded reports stay untagged and
			// their exports keep the canonical byte format.
			agg.Obs.ShardTag = c.ShardIndex
		}
	}
	return agg
}

// AssembleQuiet is Assemble under its former name: the frozen benchmark
// module (benchmark/drivers.go) still calls it.
func AssembleQuiet(cfg Config, trials []Trial, fails []*TrialError) *Aggregate {
	return Assemble(cfg, trials, fails)
}

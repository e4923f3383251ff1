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
// aggregate's samples cover the owned trials only — and of an interrupted
// run, only the trials that ran.
//
// Run is the retaining sink over RunPartial: store every result by trial
// index, then fold once.
func Run(cfg Config) *Aggregate {
	n := cfg.withDefaults().Trials
	trials, fails := make([]Trial, n), make([]*TrialError, n)
	// The sink never fails, so neither does the run.
	_ = RunPartial(cfg, nil, func(ti int, tr Trial, te *TrialError) error {
		trials[ti], fails[ti] = tr, te
		return nil
	})
	return Assemble(cfg, trials, fails)
}

// TrialFunc receives one completed trial: its index, its result, and (for a
// failed trial) the structured error. The harness delivers completions in
// strictly increasing trial order and one at a time, regardless of how many
// workers run — so a checkpoint writer or a streaming fold needs no
// reordering or locking of its own, and order-sensitive accumulations
// (float sums) stay deterministic at any parallelism. A non-nil error stops
// the run: no further trial is started or delivered.
type TrialFunc func(trial int, tr Trial, te *TrialError) error

// TrialSeed derives trial j's world seed from the config seed. Exported so
// the chaos shrinker can collapse a multi-trial failure to a single-trial
// artifact that builds the exact same world.
func TrialSeed(base int64, trial int) int64 { return base + int64(trial)*7919 }

// RunPartial is the one executor. It runs the trials of cfg that the config's
// shard owns and that skip does not exclude (nil skips nothing) on one pool
// of cfg.Parallelism workers, and passes every result through one stream on
// the caller's goroutine — FailureHook for a failed trial, then fn — exactly
// once, in trial order, retaining none of them. The run stops at the next
// trial boundary when the config's Interrupt closes or fn returns an error:
// trials not yet started are never run nor delivered, and RunPartial returns
// that error. It is the resumable, bounded-memory core under Run: a caller
// that stores what fn receives by trial index, fills the skipped slots from a
// checkpoint and calls Assemble gets exactly Run's aggregate.
func RunPartial(cfg Config, skip func(trial int) bool, fn TrialFunc) error {
	type outcome struct {
		tr  Trial
		te  *TrialError
		ran bool // false: stopped before it started; pass over silently
	}
	type cell struct {
		ti  int
		out chan outcome
	}
	cfg = cfg.withDefaults()
	var cells []cell
	for ti := 0; ti < cfg.Trials; ti++ {
		if cfg.Owns(ti) && (skip == nil || !skip(ti)) {
			cells = append(cells, cell{ti: ti})
		}
	}
	workers := min(cfg.workers(), len(cells))
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
				if !stopped.Load() && !cfg.interrupted() {
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
		if err = fn(c.ti, o.tr, o.te); err != nil {
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
// order (owned trials that ran only — see Trial.Ran), failures in trial
// order, telemetry merged in (trial, session) order. It is the one fold — a
// live run, a resumed run and a shard merge all end here — and a pure
// deterministic function of its inputs, which is what makes sharded,
// checkpointed and resumed sweeps reproduce a single-process aggregate bit
// for bit. fails may be shorter
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
		if !tr.Ran() {
			continue // never reached (an interrupted run): absent too
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

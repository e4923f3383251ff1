package sweep

import (
	"fmt"
	"os"

	"voxel/internal/exp"
)

// Options selects the engine's execution mode around a config.
type Options struct {
	// Checkpoint is the state file path; empty disables checkpointing and
	// resume. If the file exists and matches the config (fingerprint,
	// shard, mode), its finished trials are restored and skipped; a
	// mismatched file is an error, never silently recomputed over. The
	// final checkpoint of a finished run is the shard's output file —
	// feed it to MergeFiles (`voxel-sim -merge`).
	Checkpoint string
	// Every writes a checkpoint after every N completed trials (default 1,
	// i.e. after each trial). The write is atomic, so a kill between
	// writes loses at most the last N trials of work, never the file. A
	// write encodes only the trials finished since the last one, but it
	// writes the whole file: bytes on disk per write grow with the trials
	// done (Result.CheckpointBytes adds them up).
	Every int
	// Stream folds each trial into mergeable quantile sketches (relative
	// error stats.DefaultSketchAlpha) and discards the per-trial result
	// immediately: Run returns a StreamAgg instead of an exp.Aggregate and
	// peak memory stays bounded by the sketch size, not the trial count.
	// Incompatible with Telemetry (per-trial reports are exactly what
	// streaming refuses to retain).
	Stream bool
}

// Result is what a sweep run produced.
type Result struct {
	// Agg is the exact aggregate (nil in streaming mode). For a sharded
	// run it carries full-length trial vectors with only owned slots
	// populated, ready for MergeAggregates.
	Agg *exp.Aggregate
	// Stream is the streaming aggregate (nil in exact mode).
	Stream *StreamAgg
	// Restored counts trials recovered from the checkpoint; Ran counts
	// trials executed by this process. Restored+Ran equals the shard's
	// owned-trial count when the run finished cleanly.
	Restored int
	Ran      int
	// CheckpointWrites counts the checkpoint files this run wrote,
	// CheckpointBytes their sizes added up, and CheckpointFinal the size of
	// the last one — the file the run left behind.
	CheckpointWrites int
	CheckpointBytes  int64
	CheckpointFinal  int64
}

// Run executes cfg's sweep (or this shard's slice of it) under the
// engine: resuming from, and checkpointing to, opts.Checkpoint, in either
// exact (full per-trial retention) or streaming (bounded-memory sketch)
// mode. The determinism contract: for the same cfg, the returned
// aggregate is bit-identical whether the sweep ran in one process, was
// killed and resumed any number of times, or ran sharded and merged —
// modulo the run-specific Stack text of failure records. A checkpoint
// write that fails stops the sweep at the next trial boundary; Run then
// returns the error together with the counts so far.
func Run(cfg exp.Config, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d := cfg.WithDefaults()
	if opts.Stream && d.Telemetry {
		return Result{}, fmt.Errorf("sweep: streaming mode discards per-trial telemetry; disable one")
	}
	if opts.Every <= 0 {
		opts.Every = 1
	}
	p, err := newProgress(header(d, opts.Stream), func() (exp.Config, error) { return d, nil })
	if err != nil {
		return Result{}, err
	}
	var res Result
	if opts.Checkpoint != "" {
		prev, err := claim(opts.Checkpoint, &p.file)
		if err != nil {
			return Result{}, err
		}
		if prev != nil {
			if err := p.load(prev); err != nil {
				return Result{}, err
			}
			res.Restored = p.n
		}
	}

	sinceWrite := 0
	save := func() error {
		sinceWrite = 0
		n, err := p.checkpoint().writeFile(opts.Checkpoint)
		if err == nil {
			res.CheckpointWrites++
			res.CheckpointBytes += n
			res.CheckpointFinal = n
		}
		return err
	}
	err = exp.RunPartial(d, func(ti int) bool { return p.done[ti] },
		func(ti int, tr exp.Trial, te *exp.TrialError) error {
			p.add(ti, tr, te)
			res.Ran++
			if sinceWrite++; opts.Checkpoint != "" && sinceWrite >= opts.Every {
				return save()
			}
			return nil
		})
	if err != nil {
		return res, fmt.Errorf("sweep: checkpoint write failed mid-run: %w", err)
	}
	if opts.Checkpoint != "" && (sinceWrite > 0 || res.Ran == 0) {
		// Final write so the file always reflects the finished state (and
		// a fully-restored run still refreshes the output file).
		if err := save(); err != nil {
			return res, err
		}
	}
	res.Agg, res.Stream = p.acc.result()
	return res, nil
}

// claim is the rule for the file a run checkpoints to and a merge writes: a
// file that does not exist is free (nil); an existing one must be a valid
// checkpoint of the same sweep, mode and shard as head — it is returned, for
// a run to resume from — and any other is refused, never written over.
func claim(path string, head *Checkpoint) (*Checkpoint, error) {
	prev, err := LoadCheckpoint(path)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, err
	}
	if err := prev.sameSweep(head); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if prev.Shard != head.Shard {
		return nil, fmt.Errorf("sweep: %s belongs to shard %v, this one is %v", path, prev.Shard, head.Shard)
	}
	return prev, nil
}

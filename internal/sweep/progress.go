package sweep

import (
	"encoding/json"
	"fmt"

	"voxel/internal/exp"
)

// progress is a sweep's state between trials: which trials are done, and
// every done trial's full result and failure by trial index. A checkpoint
// file is its serialization; resume and merge are loads of such files back
// into one. The fold at the end is exp.Assemble — the fold a plain exp.Run
// ends in, which is why a checkpointed, resumed or merged sweep reproduces
// it bit for bit.
type progress struct {
	file   Checkpoint // the header, fixed; checkpoint() refills Done and the body
	cfg    exp.Config // sizes the vectors, stamps restored failures, folds
	done   []bool     // by trial index
	n      int        // how many are done
	trials []exp.Trial
	fails  []*exp.TrialError
	// enc holds each trial's checkpoint record as the first checkpoint
	// encoded it (nil until then, and for failed trials): a result does not
	// change once it is in, so every later write carries the same bytes.
	// Together they are as large as the checkpoint file.
	enc [][]byte
}

// newProgress starts an empty sweep of cfg under the given checkpoint header.
func newProgress(head Checkpoint, cfg exp.Config) *progress {
	cfg = cfg.WithDefaults()
	return &progress{file: head, cfg: cfg, done: make([]bool, cfg.Trials),
		trials: make([]exp.Trial, cfg.Trials), fails: make([]*exp.TrialError, cfg.Trials),
		enc: make([][]byte, cfg.Trials)}
}

// add records one trial this process computed.
func (p *progress) add(ti int, tr exp.Trial, te *exp.TrialError) {
	p.trials[ti], p.fails[ti] = tr, te
	p.done[ti] = true
	p.n++
}

// load folds in a (validated) checkpoint of the same experiment: what resume
// does with the run's own file and what merge does with every shard's. A
// trial that is already done is an error: two shards claim the same work.
func (p *progress) load(cp *Checkpoint) error {
	for _, ti := range cp.Done {
		if p.done[ti] {
			return fmt.Errorf("trial %d was already loaded from another shard", ti)
		}
		p.done[ti] = true
	}
	p.n += len(cp.Done)
	for _, rec := range cp.Trials {
		if len(rec.Result.SessionObs) > 0 {
			// Restore the alias JSON does not carry: Obs is the first
			// session's report, so the index stamping Assemble does
			// through SessionObs is visible through Obs too.
			rec.Result.Obs = rec.Result.SessionObs[0]
		}
		p.trials[rec.Trial] = rec.Result
	}
	for _, te := range cp.Fails {
		// Stamp the config exactly as the harness did when the trial
		// originally failed; the file stores results, not configs.
		te.Config = p.cfg
		p.trials[te.Trial] = exp.Trial{Failed: true}
		p.fails[te.Trial] = te
	}
	return nil
}

// result folds every trial into the sweep's aggregate.
func (p *progress) result() *exp.Aggregate {
	return exp.Assemble(p.cfg, p.trials, p.fails)
}

// checkpoint serializes the progress: done trials in ascending order, then
// a trial or failure record for each. The bytes are a pure function of which
// trials have completed — two processes that completed the same set write
// identical files. The returned value is reused by the next call.
func (p *progress) checkpoint() *Checkpoint {
	cp := &p.file
	cp.Done, cp.Trials, cp.Fails = cp.Done[:0], cp.Trials[:0], nil
	for ti, done := range p.done {
		if !done {
			continue
		}
		cp.Done = append(cp.Done, ti)
		if te := p.fails[ti]; te != nil {
			cp.Fails = append(cp.Fails, te)
			continue
		}
		rec := trialRecord{Trial: ti, Result: p.trials[ti], enc: p.enc[ti]}
		if rec.enc == nil {
			// Stamp telemetry reports with their (trial, session) coordinates
			// before marshal — the same values obs.MergeSessions assigns at
			// assembly — so the serialized record is canonical whether the
			// producing process had assembled yet or not. Without this, a
			// merged output file and a single-process run's file would differ
			// in stamping alone.
			for si, r := range rec.Result.SessionObs {
				if r != nil {
					r.Trial, r.Session = ti, si
				}
			}
			// A result json cannot encode stays unencoded: WriteFile meets
			// the same error and reports it.
			rec.enc, _ = json.Marshal(&rec)
			p.enc[ti] = rec.enc
		}
		cp.Trials = append(cp.Trials, rec)
	}
	return cp
}

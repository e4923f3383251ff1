package sweep

import (
	"encoding/json"
	"fmt"

	"voxel/internal/exp"
)

// accumulator is what a sweep folds its completed trials into. There are
// two — exact keeps every trial, *StreamAgg keeps bounded-memory sketches —
// and the choice between them is made once, in newAccumulator; running,
// checkpointing, resuming and merging then take one path over whichever
// was built.
type accumulator interface {
	// add folds in one trial this process computed, in trial order.
	add(ti int, tr exp.Trial, te *exp.TrialError)
	// save writes the results of cp.Done's trials into cp's body.
	save(cp *Checkpoint)
	// load folds in the body of a (validated) checkpoint: what resume does
	// with the run's own file and what merge does with every shard's.
	load(cp *Checkpoint) error
	// result reads the sweep's outcome; one of the two is nil.
	result() (*exp.Aggregate, *StreamAgg)
}

// newAccumulator chooses the mode. Only the exact accumulator needs the
// config — to size its vectors, stamp restored failures and fold — so it
// is taken lazily: a streaming merge never has to rebuild one from a file.
func newAccumulator(stream bool, config func() (exp.Config, error)) (accumulator, error) {
	if stream {
		return NewStreamAgg(), nil
	}
	cfg, err := config()
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	return &exact{cfg: cfg, trials: make([]exp.Trial, cfg.Trials), fails: make([]*exp.TrialError, cfg.Trials),
		enc: make([][]byte, cfg.Trials)}, nil
}

// exact retains every trial's full result, by trial index, and folds them
// with exp.Assemble — the fold a plain exp.Run ends in, which is why a
// checkpointed, resumed or merged sweep reproduces it bit for bit.
type exact struct {
	cfg    exp.Config
	trials []exp.Trial
	fails  []*exp.TrialError
	// enc holds each trial's checkpoint record as the first save encoded it
	// (nil until then, and for failed trials): a result does not change once
	// it is in, so every later write carries the same bytes. Together they
	// are as large as the checkpoint file.
	enc [][]byte
}

func (e *exact) add(ti int, tr exp.Trial, te *exp.TrialError) {
	e.trials[ti], e.fails[ti] = tr, te
}

func (e *exact) save(cp *Checkpoint) {
	for _, ti := range cp.Done {
		if te := e.fails[ti]; te != nil {
			cp.Fails = append(cp.Fails, te)
			continue
		}
		rec := trialRecord{Trial: ti, Result: e.trials[ti], enc: e.enc[ti]}
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
			e.enc[ti] = rec.enc
		}
		cp.Trials = append(cp.Trials, rec)
	}
}

func (e *exact) load(cp *Checkpoint) error {
	for _, rec := range cp.Trials {
		if len(rec.Result.SessionObs) > 0 {
			// Restore the invariant JSON cannot express: Obs aliases the
			// first session's report, so the index stamping Assemble does
			// through SessionObs is visible through Obs too.
			rec.Result.Obs = rec.Result.SessionObs[0]
		}
		e.trials[rec.Trial] = rec.Result
	}
	for _, te := range cp.Fails {
		// Stamp the config exactly as the harness did when the trial
		// originally failed; the file stores results, not configs.
		te.Config = e.cfg
		e.trials[te.Trial] = exp.Trial{Failed: true}
		e.fails[te.Trial] = te
	}
	return nil
}

func (e *exact) result() (*exp.Aggregate, *StreamAgg) {
	return exp.Assemble(e.cfg, e.trials, e.fails), nil
}

// progress is a sweep's state between trials: which trials are done, and
// the accumulator holding their results. A checkpoint file is its
// serialization; resume and merge are loads of such files back into one.
type progress struct {
	file Checkpoint // the header, fixed; checkpoint() refills Done and the body
	done []bool     // by trial index
	n    int        // how many are done
	acc  accumulator
}

// newProgress starts an empty sweep under the given checkpoint header.
func newProgress(head Checkpoint, config func() (exp.Config, error)) (*progress, error) {
	acc, err := newAccumulator(head.Stream, config)
	if err != nil {
		return nil, err
	}
	return &progress{file: head, done: make([]bool, head.Config.Trials), acc: acc}, nil
}

func (p *progress) add(ti int, tr exp.Trial, te *exp.TrialError) {
	p.acc.add(ti, tr, te)
	p.done[ti] = true
	p.n++
}

// load folds in a checkpoint of the same experiment and mode. A trial
// that is already done is an error: two shards claim the same work.
func (p *progress) load(cp *Checkpoint) error {
	for _, ti := range cp.Done {
		if p.done[ti] {
			return fmt.Errorf("trial %d was already loaded from another shard", ti)
		}
		p.done[ti] = true
	}
	p.n += len(cp.Done)
	return p.acc.load(cp)
}

// checkpoint serializes the progress: done trials in ascending order, then
// the accumulator's body for exactly those. The bytes are a pure function
// of which trials have completed — two processes that completed the same
// set write identical files. The returned value is reused by the next call.
func (p *progress) checkpoint() *Checkpoint {
	cp := &p.file
	cp.Done = cp.Done[:0]
	for ti, done := range p.done {
		if done {
			cp.Done = append(cp.Done, ti)
		}
	}
	cp.Trials, cp.Fails, cp.Sketch = cp.Trials[:0], nil, nil
	p.acc.save(cp)
	return cp
}

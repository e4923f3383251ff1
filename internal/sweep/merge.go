package sweep

import (
	"cmp"
	"fmt"
	"os"
	"slices"

	"voxel/internal/exp"
)

// Merged is the result of folding a complete set of shard checkpoint files
// back into one campaign. Exactly one of Agg (exact mode) and Stream
// (streaming mode) is set.
type Merged struct {
	Agg    *exp.Aggregate
	Stream *StreamAgg
	p      *progress // the merged state; an unsharded checkpoint when serialized
}

// MergeFiles loads shard checkpoint files and merges them into the
// single-process campaign result. Every file must be a checkpoint of the
// same experiment (fingerprints equal) in the same mode, and together they
// must hold every trial of the sweep exactly once — which, since a file
// holds only trials its shard owns, means a complete set of finished
// shards, whatever shard count each was run at. Merging is what resume
// does, n times over: load every file into one progress, then fold once. A
// lone unsharded file round-trips to itself, which is the byte-determinism
// check `voxel-sim -merge` offers CI.
func MergeFiles(paths []string) (*Merged, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweep: no checkpoint files to merge")
	}
	set := make([]shardState, len(paths))
	for i, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cp, err := decodeCheckpoint(b)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", path, err)
		}
		set[i] = shardState{path, cp}
	}
	// An exact fold rebuilds its config from the files; they all hold the
	// same Spec once merge has checked their fingerprints.
	return merge(set, set[0].cp.Config.Config)
}

// MergeAggregates folds the in-memory aggregates of a complete shard set —
// Session runs with WithShard, or exp.Run on sharded configs — into the
// aggregate the equivalent unsharded run would have produced, bit for bit
// (only the run-specific Stack text of failure records can differ). Each
// aggregate becomes the checkpoint its run would have written, and the set
// goes through MergeFiles' own validation and fold, so the two merges accept
// and reject exactly the same shard sets: an interrupted shard, whose
// never-run trials are missing, is incomplete. The fold runs under
// shards[0]'s own normalized config rather than one rebuilt from the Spec,
// so a campaign over a trace with no canonical name (e.g.
// trace.Constant/trace.Step) merges too.
func MergeAggregates(shards []*exp.Aggregate) (*exp.Aggregate, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: no shard aggregates to merge")
	}
	set := make([]shardState, len(shards))
	for i, agg := range shards {
		if agg == nil {
			return nil, fmt.Errorf("sweep: shard aggregate %d is nil", i)
		}
		set[i] = shardState{fmt.Sprintf("aggregate %d", i), checkpointOf(agg)}
	}
	norm := shards[0].Config.Normalized()
	m, err := merge(set, func() (exp.Config, error) { return norm, nil })
	if err != nil {
		return nil, err
	}
	return m.Agg, nil
}

// checkpointOf is the checkpoint the run that produced agg would have
// written: its header, the owned trials that ran as Done, and their trial
// and failure records as the body.
func checkpointOf(agg *exp.Aggregate) *Checkpoint {
	cp := header(agg.Config, false)
	for ti := range agg.Trials {
		tr := &agg.Trials[ti]
		if !agg.Config.Owns(ti) || !tr.Ran() {
			continue
		}
		cp.Done = append(cp.Done, ti)
		if !tr.Failed {
			cp.Trials = append(cp.Trials, trialRecord{Trial: ti, Result: *tr})
		}
	}
	for i := range agg.Failed {
		te := agg.Failed[i] // a copy: the fold stamps the merged config on it
		cp.Fails = append(cp.Fails, &te)
	}
	return &cp
}

// shardState is one member of a shard set and the name errors call it by.
type shardState struct {
	name string
	cp   *Checkpoint
}

// merge is the one shard-set fold: every checkpoint must validate and hold
// the same sweep as the first; they load in shard order into one progress,
// where a trial two of them hold is an error; and together they must hold
// every trial. config supplies the exact fold's config.
func merge(set []shardState, config func() (exp.Config, error)) (*Merged, error) {
	first := set[0]
	for _, s := range set {
		if err := s.cp.validate(); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", s.name, err)
		}
		if err := s.cp.sameSweep(first.cp); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w (first: %s)", s.name, err, first.name)
		}
	}
	// Load in shard order, whatever order the set was named in: a sketch's
	// float Sum accumulates in load order.
	slices.SortStableFunc(set, func(a, b shardState) int { return cmp.Compare(a.cp.Shard.Index, b.cp.Shard.Index) })
	p, err := newProgress(Checkpoint{Version: checkpointVersion, Fingerprint: first.cp.Fingerprint,
		Stream: first.cp.Stream, Config: first.cp.Config}, config)
	if err != nil {
		return nil, err
	}
	for _, s := range set {
		if err := p.load(s.cp); err != nil {
			return nil, fmt.Errorf("sweep: %s (shard %v): %w", s.name, s.cp.Shard, err)
		}
	}
	for ti, done := range p.done {
		if !done {
			return nil, fmt.Errorf("sweep: the shards hold %d of %d trials; trial %d is the first missing (an unfinished or absent shard?)",
				p.n, len(p.done), ti)
		}
	}
	m := &Merged{p: p}
	m.Agg, m.Stream = p.acc.result()
	return m, nil
}

// WriteFile persists the merged campaign as an unsharded checkpoint file,
// atomically, in the same format sweep.Run writes — for an exact campaign
// the same bytes a single uninterrupted process would have left behind
// (modulo run-specific failure stacks). It refuses the path exactly as a
// run of the unsharded campaign would: an existing file that is not a
// checkpoint of that campaign, in that mode, is never written over.
func (m *Merged) WriteFile(path string) error {
	if _, err := claim(path, &m.p.file); err != nil {
		return err
	}
	return m.p.checkpoint().WriteFile(path)
}

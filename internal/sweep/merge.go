package sweep

import (
	"fmt"
	"sort"

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
// shards. Merging is what resume does, n times over: load every file into
// one progress, then fold once. A lone unsharded file round-trips to
// itself, which is the byte-determinism check voxel-merge offers CI.
func MergeFiles(paths []string) (*Merged, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweep: no checkpoint files to merge")
	}
	type file struct {
		path string
		cp   *Checkpoint
	}
	files := make([]file, len(paths))
	for i, path := range paths {
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		files[i] = file{path, cp}
		if err := cp.sameSweep(files[0].cp); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w (first file: %s)", path, err, paths[0])
		}
	}
	// Load in shard order, whatever order the files were named in: a
	// sketch's float Sum accumulates in load order.
	sort.SliceStable(files, func(i, j int) bool { return files[i].cp.Shard.Index < files[j].cp.Shard.Index })
	first := files[0].cp
	p, err := newProgress(Checkpoint{Version: checkpointVersion, Fingerprint: first.Fingerprint,
		Stream: first.Stream, Config: first.Config}, first.Config.Config)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if err := p.load(f.cp); err != nil {
			return nil, fmt.Errorf("sweep: %s (shard %v): %w", f.path, f.cp.Shard, err)
		}
	}
	for ti, done := range p.done {
		if !done {
			return nil, fmt.Errorf("sweep: the files hold %d of %d trials; trial %d is the first missing (an unfinished or absent shard?)",
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
// (modulo run-specific failure stacks).
func (m *Merged) WriteFile(path string) error { return m.p.checkpoint().WriteFile(path) }

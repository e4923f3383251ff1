// Package sweep is the large-sweep execution engine layered on exp: it
// shards a sweep deterministically across processes, checkpoints
// completed-trial state atomically so a killed campaign resumes without
// recomputing finished trials, and offers a streaming aggregation mode that
// folds per-trial samples into mergeable quantile sketches so peak memory
// stays bounded as trial counts grow.
//
// The determinism contract is inherited from exp and preserved end to end:
// a trial's seed and trace shift depend only on its index and the full
// trial count, never on which shard or process ran it, so the merge of a
// complete shard set — and the resume of a killed run — reproduce the
// single-process aggregate exactly.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"voxel/internal/exp"
)

// Shard names one slice of a sharded campaign: this process owns the trials
// whose index ≡ Index (mod Count). The zero value means unsharded.
type Shard struct {
	Index int
	Count int
}

// Unsharded reports whether the shard spec selects the whole sweep.
func (s Shard) Unsharded() bool { return s.Count <= 1 }

// owns reports whether the shard runs the given trial. exp.Config.Owns is
// the one statement of the ownership rule; this only adapts the types.
func (s Shard) owns(trial int) bool {
	return exp.Config{ShardIndex: s.Index, ShardCount: s.Count}.Owns(trial)
}

// Owned counts the trials the shard owns out of a sweep of n.
func (s Shard) Owned(n int) int {
	owned := 0
	for ti := 0; ti < n; ti++ {
		if s.owns(ti) {
			owned++
		}
	}
	return owned
}

// String renders the canonical "i/n" spec.
func (s Shard) String() string {
	return strconv.Itoa(s.Index) + "/" + strconv.Itoa(s.Count)
}

// ParseShard parses an "i/n" spec: shard i of n, with 0 ≤ i < n and n ≥ 1.
func ParseShard(spec string) (Shard, error) {
	a, b, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard spec %q is not i/n", spec)
	}
	i, err := strconv.Atoi(strings.TrimSpace(a))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard index %q: %v", a, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return Shard{}, fmt.Errorf("sweep: shard count %q: %v", b, err)
	}
	if n < 1 {
		return Shard{}, fmt.Errorf("sweep: shard count %d must be at least 1", n)
	}
	if i < 0 || i >= n {
		return Shard{}, fmt.Errorf("sweep: shard index %d out of range [0, %d)", i, n)
	}
	return Shard{Index: i, Count: n}, nil
}

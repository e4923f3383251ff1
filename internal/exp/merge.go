package exp

import (
	"fmt"
	"reflect"
)

// Normalized returns the config with its execution-only fields cleared:
// shard coordinates, worker parallelism, and the interrupt channel. Two
// configs that normalize equal describe the same sweep — the same trials
// with the same seeds producing the same results — even if they were run
// on different shards, at different parallelism, or under different
// cancellation plumbing. Merge and resume use this as the compatibility
// test, and a merged aggregate is stamped with the normalized (defaulted)
// config, which is exactly what an unsharded sequential run stamps.
func (c Config) Normalized() Config {
	c = c.withDefaults()
	c.ShardIndex = 0
	c.ShardCount = 0
	c.Parallelism = 0
	c.Interrupt = nil
	return c
}

// MergeShards folds the aggregates of a complete shard set back into the
// aggregate the equivalent unsharded run would have produced, bit for bit.
// Every shard must carry the same ShardCount n, the set must cover shard
// indices 0..n-1 exactly once, and the configs must match after
// Normalized(). Each shard's owned trials are slotted into one full-length
// trial vector — ownership partitions the indices, so the order the shards
// are listed in cannot matter — and folded by Assemble under the normalized
// config; because trial seeds and trace shifts depend only on the trial
// index and the full trial count, never on which shard ran the trial, the
// fold reproduces the single-process one exactly. A single unsharded
// aggregate merges to itself, re-stamped with the normalized config.
func MergeShards(shards []*Aggregate) (*Aggregate, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("exp: merge of zero shards")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("exp: shard %d is nil", i)
		}
	}
	norm := shards[0].Config.Normalized()
	n := max(shards[0].Config.ShardCount, 1)
	if len(shards) != n {
		return nil, fmt.Errorf("exp: got %d shards, shard 0 says there are %d", len(shards), n)
	}
	trials := make([]Trial, norm.Trials)
	fails := make([]*TrialError, norm.Trials)
	seen := make([]bool, n)
	for i, s := range shards {
		c := s.Config.withDefaults()
		switch {
		case max(c.ShardCount, 1) != n:
			return nil, fmt.Errorf("exp: shard %d has count %d, shard 0 has %d", i, c.ShardCount, n)
		case c.ShardIndex < 0 || c.ShardIndex >= n:
			return nil, fmt.Errorf("exp: shard %d has index %d out of range [0, %d)", i, c.ShardIndex, n)
		case seen[c.ShardIndex]:
			return nil, fmt.Errorf("exp: shard index %d appears twice", c.ShardIndex)
		case !reflect.DeepEqual(c.Normalized(), norm):
			return nil, fmt.Errorf("exp: shard %d config does not match shard 0 after normalization", i)
		case len(s.Trials) != norm.Trials:
			return nil, fmt.Errorf("exp: shard %d has %d trial slots, config says %d",
				i, len(s.Trials), norm.Trials)
		}
		seen[c.ShardIndex] = true
		for ti := range trials {
			if c.Owns(ti) {
				trials[ti] = s.Trials[ti]
			}
		}
		for fi := range s.Failed {
			te := s.Failed[fi] // copy; the shard's record stays untouched
			if te.Trial < 0 || te.Trial >= norm.Trials {
				return nil, fmt.Errorf("exp: shard %d failure names trial %d of %d",
					c.ShardIndex, te.Trial, norm.Trials)
			}
			// Stamp the error's config like the unsharded harness would
			// have, so merged Failed entries compare equal to a clean run's.
			te.Config = norm
			fails[te.Trial] = &te
		}
	}
	return Assemble(norm, trials, fails), nil
}

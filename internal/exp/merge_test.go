package exp_test

// exp's sharding contract — a shard computes exactly the trials, seeds and
// trace shifts the unsharded run would — checked through the one merge
// path, sweep.MergeAggregates. An external test package, because sweep
// imports exp.

import (
	"reflect"
	"strings"
	"testing"

	"voxel/internal/exp"
	"voxel/internal/sweep"
	"voxel/internal/trace"
)

func mergeCfg() exp.Config {
	return exp.Config{
		Title:          "BBB",
		System:         exp.SysVoxel,
		BufferSegments: 3,
		Trace:          trace.TMobile(),
		Trials:         4,
		Segments:       6,
		Seed:           11,
	}
}

// shardCfg is the reference sweep for merge determinism: telemetry on and
// one injected failure, so the test covers sample slices, Failed records,
// and the merged obs report all at once.
func shardCfg() exp.Config {
	c := mergeCfg()
	c.Trials = 6
	c.Telemetry = true
	c.Inject = "panic@2"
	return c
}

// scrubStacks zeroes the Stack text of every failure record: a goroutine
// dump embeds goroutine IDs and heap addresses, which differ between runs
// by construction. Everything else about a TrialError — trial, seed,
// session, virtual clock, rule, message, config — is deterministic and
// stays under exact comparison.
func scrubStacks(a *exp.Aggregate) {
	for i := range a.Failed {
		a.Failed[i].Stack = ""
	}
}

// TestShardedMergeMatchesUnsharded is the tentpole guarantee: run the same
// sweep unsharded and as 2- and 4-shard campaigns (shards in parallel),
// merge, and demand DeepEqual aggregates — trials, samples, failures, and
// telemetry alike.
func TestShardedMergeMatchesUnsharded(t *testing.T) {
	whole := exp.Run(shardCfg())
	scrubStacks(whole)
	if len(whole.Failed) != 1 || whole.Failed[0].Trial != 2 {
		t.Fatalf("reference run: want 1 failure at trial 2, got %+v", whole.Failed)
	}

	for _, n := range []int{2, 4} {
		shards := make([]*exp.Aggregate, n)
		for i := 0; i < n; i++ {
			c := shardCfg()
			c.ShardIndex, c.ShardCount = i, n
			c.Parallelism = 2 // shards themselves run parallel
			shards[i] = exp.Run(c)
		}
		// Merge in reverse order to prove the listing order cannot matter.
		rev := make([]*exp.Aggregate, n)
		for i := range shards {
			rev[n-1-i] = shards[i]
		}
		merged, err := sweep.MergeAggregates(rev)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		scrubStacks(merged)
		if !reflect.DeepEqual(merged, whole) {
			if !reflect.DeepEqual(merged.Trials, whole.Trials) {
				t.Fatalf("n=%d: merged trials differ from unsharded", n)
			}
			if !reflect.DeepEqual(merged.Failed, whole.Failed) {
				t.Fatalf("n=%d: merged failures differ: %+v vs %+v", n, merged.Failed, whole.Failed)
			}
			if !reflect.DeepEqual(merged.Obs, whole.Obs) {
				t.Fatalf("n=%d: merged telemetry differs from unsharded", n)
			}
			t.Fatalf("n=%d: merged aggregate differs from unsharded", n)
		}
	}
}

// Every shard set that is not one complete campaign is refused, each for
// its own reason. The shards are real runs: a slot counts only if its trial
// ran, so an empty aggregate would fail every case as merely incomplete.
func TestMergeShardsErrors(t *testing.T) {
	runs := map[[2]int]*exp.Aggregate{}
	mk := func(index, count int) *exp.Aggregate {
		k := [2]int{index, count}
		if runs[k] == nil {
			c := mergeCfg()
			c.ShardIndex, c.ShardCount = index, count
			runs[k] = exp.Run(c)
		}
		return runs[k]
	}
	drift := *mk(1, 2)
	drift.Config.Seed = 999
	cases := []struct {
		name   string
		shards []*exp.Aggregate
		want   string
	}{
		{"empty", nil, "no shard aggregates"},
		{"nil-shard", []*exp.Aggregate{nil}, "shard aggregate 0 is nil"},
		{"missing-shard", []*exp.Aggregate{mk(0, 2)}, "hold 2 of 4 trials; trial 1 is the first missing"},
		{"duplicate-index", []*exp.Aggregate{mk(0, 2), mk(0, 2)}, "trial 0 was already loaded"},
		// Mixed counts are fine when they cover the campaign (0/2 + 1/4 +
		// 3/4 merges); 0/2 + 1/3 leaves trial 3 to nobody.
		{"count-mismatch", []*exp.Aggregate{mk(0, 2), mk(1, 3)}, "hold 3 of 4 trials; trial 3 is the first missing"},
		{"unsharded-pair", []*exp.Aggregate{mk(0, 0), mk(0, 0)}, "trial 0 was already loaded"},
		{"index-out-of-range", []*exp.Aggregate{mk(0, 2), mk(5, 2)}, "shard 5/2 is not i/n"},
		{"config-drift", []*exp.Aggregate{mk(0, 2), &drift}, "different experiment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sweep.MergeAggregates(tc.shards)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got err %v, want substring %q", err, tc.want)
			}
		})
	}

	// A single unsharded aggregate merges to itself (normalized config).
	solo := mergeCfg()
	solo.Parallelism = 4
	agg := exp.Run(solo)
	merged, err := sweep.MergeAggregates([]*exp.Aggregate{agg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Trials, agg.Trials) {
		t.Fatal("identity merge changed trials")
	}
	if merged.Config.Parallelism != 0 {
		t.Fatal("identity merge must normalize the config")
	}
}

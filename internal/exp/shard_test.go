package exp

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestShardValidate(t *testing.T) {
	cases := []struct {
		name   string
		index  int
		count  int
		wantOK bool
	}{
		{"unsharded", 0, 0, true},
		{"single-shard", 0, 1, true},
		{"first-of-four", 0, 4, true},
		{"last-of-four", 3, 4, true},
		{"index-equals-count", 4, 4, false},
		{"index-past-count", 7, 4, false},
		{"negative-index", -1, 4, false},
		{"negative-count", 0, -2, false},
		{"index-without-count", 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tracedCfg()
			c.ShardIndex, c.ShardCount = tc.index, tc.count
			err := c.Validate()
			if tc.wantOK && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.wantOK && err == nil {
				t.Fatal("want validation error, got nil")
			}
		})
	}
}

func TestShardOwns(t *testing.T) {
	c := Config{Trials: 10}
	for ti := 0; ti < 10; ti++ {
		if !c.Owns(ti) {
			t.Fatalf("unsharded config must own trial %d", ti)
		}
	}
	c.ShardCount = 3
	for _, tc := range []struct {
		index int
		owned []int
	}{
		{0, []int{0, 3, 6, 9}},
		{1, []int{1, 4, 7}},
		{2, []int{2, 5, 8}},
	} {
		c.ShardIndex = tc.index
		var got []int
		for ti := 0; ti < 10; ti++ {
			if c.Owns(ti) {
				got = append(got, ti)
			}
		}
		if !reflect.DeepEqual(got, tc.owned) {
			t.Fatalf("shard %d/3 owns %v, want %v", tc.index, got, tc.owned)
		}
	}
	// Every trial is owned by exactly one shard.
	counts := make([]int, 10)
	for i := 0; i < 3; i++ {
		c.ShardIndex = i
		for ti := 0; ti < 10; ti++ {
			if c.Owns(ti) {
				counts[ti]++
			}
		}
	}
	for ti, n := range counts {
		if n != 1 {
			t.Fatalf("trial %d owned by %d shards", ti, n)
		}
	}
}

// shardCfg is the reference sweep for merge determinism: telemetry on and
// one injected failure, so the test covers sample slices, Failed records,
// and the merged obs report all at once.
func shardCfg() Config {
	c := tracedCfg()
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
func scrubStacks(a *Aggregate) {
	for i := range a.Failed {
		a.Failed[i].Stack = ""
	}
}

// TestShardedMergeMatchesUnsharded is the tentpole guarantee: run the same
// sweep unsharded and as 2- and 4-shard campaigns (shards in parallel),
// merge, and demand DeepEqual aggregates — trials, samples, failures, and
// telemetry alike.
func TestShardedMergeMatchesUnsharded(t *testing.T) {
	whole := Run(shardCfg())
	scrubStacks(whole)
	if len(whole.Failed) != 1 || whole.Failed[0].Trial != 2 {
		t.Fatalf("reference run: want 1 failure at trial 2, got %+v", whole.Failed)
	}

	for _, n := range []int{2, 4} {
		shards := make([]*Aggregate, n)
		for i := 0; i < n; i++ {
			c := shardCfg()
			c.ShardIndex, c.ShardCount = i, n
			c.Parallelism = 2 // shards themselves run parallel
			shards[i] = Run(c)
		}
		// Merge in reverse order to prove the listing order cannot matter.
		rev := make([]*Aggregate, n)
		for i := range shards {
			rev[n-1-i] = shards[i]
		}
		merged, err := MergeShards(rev)
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

// A shard must only compute the trials it owns: peer slots stay zero and
// contribute no samples.
func TestShardRunsOnlyOwnedTrials(t *testing.T) {
	c := tracedCfg()
	c.Trials = 5
	c.ShardIndex, c.ShardCount = 1, 2 // owns trials 1 and 3
	agg := Run(c)
	if len(agg.Trials) != 5 {
		t.Fatalf("shard aggregate must keep full trial vector, got %d slots", len(agg.Trials))
	}
	for ti, tr := range agg.Trials {
		owned := ti%2 == 1
		if owned && !tr.Completed {
			t.Fatalf("owned trial %d did not run", ti)
		}
		if !owned && (tr.Completed || tr.AvgBitrate != 0) {
			t.Fatalf("unowned trial %d has results", ti)
		}
	}
	if len(agg.BufRatios) != 2 || len(agg.Bitrates) != 2 {
		t.Fatalf("shard must sample only owned trials: %d bufratios", len(agg.BufRatios))
	}
}

func TestMergeShardsErrors(t *testing.T) {
	mk := func(index, count int) *Aggregate {
		c := tracedCfg()
		c.Trials = 4
		c.ShardIndex, c.ShardCount = index, count
		d := c.withDefaults()
		return &Aggregate{Config: d, Trials: make([]Trial, d.Trials)}
	}
	cases := []struct {
		name   string
		shards []*Aggregate
	}{
		{"empty", nil},
		{"nil-shard", []*Aggregate{nil}},
		{"missing-shard", []*Aggregate{mk(0, 2)}},
		{"duplicate-index", []*Aggregate{mk(0, 2), mk(0, 2)}},
		{"count-mismatch", []*Aggregate{mk(0, 2), mk(1, 3)}},
		{"unsharded-pair", []*Aggregate{mk(0, 0), mk(0, 0)}},
		{"index-out-of-range", []*Aggregate{mk(0, 2), mk(5, 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeShards(tc.shards); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}

	// Config drift between shards must be rejected.
	a, b := mk(0, 2), mk(1, 2)
	b.Config.Seed = 999
	if _, err := MergeShards([]*Aggregate{a, b}); err == nil {
		t.Fatal("config drift must fail the merge")
	}

	// A single unsharded aggregate merges to itself (normalized config).
	solo := tracedCfg()
	solo.Parallelism = 4
	agg := Run(solo)
	merged, err := MergeShards([]*Aggregate{agg})
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

// RunPartial must deliver completions serialized and in strictly increasing
// trial order at any parallelism, and honor the skip predicate.
func TestRunPartialSkipAndOrder(t *testing.T) {
	c := tracedCfg()
	c.Trials = 8
	c.Parallelism = 4
	var mu sync.Mutex
	var order []int
	inCallback := false
	trials := make([]Trial, 8)
	err := RunPartial(c, func(ti int) bool { return ti == 3 || ti == 6 }, // skip two
		func(ti int, tr Trial, te *TrialError) error {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("TrialFunc reentered: delivery not serialized")
				return nil
			}
			inCallback = true
			mu.Unlock()
			order = append(order, ti)
			trials[ti] = tr
			mu.Lock()
			inCallback = false
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 4, 5, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	// The partial results must equal the corresponding slots of a full run.
	full := Run(tracedCfgTrials(8))
	for _, ti := range order {
		if !reflect.DeepEqual(trials[ti], full.Trials[ti]) {
			t.Fatalf("partial trial %d differs from full run", ti)
		}
	}
}

func tracedCfgTrials(n int) Config {
	c := tracedCfg()
	c.Trials = n
	return c
}

// On a sharded config RunPartial delivers exactly the owned trials, in order.
func TestRunPartialShardOwnedOnly(t *testing.T) {
	c := tracedCfg()
	c.Trials = 6
	c.Parallelism = 3
	c.ShardIndex, c.ShardCount = 0, 2
	var got []int
	err := RunPartial(c, nil, func(ti int, tr Trial, te *TrialError) error {
		got = append(got, ti)
		if !tr.Completed {
			t.Errorf("trial %d delivered incomplete", ti)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// A sink error stops the run at the next trial boundary — the stop path a
// closed Interrupt takes: nothing further is delivered, the error comes
// back, and the trials not yet started never run.
func TestRunPartialSinkErrorStops(t *testing.T) {
	for _, par := range []int{1, 4} {
		c := tracedCfg()
		c.Trials = 40
		c.Parallelism = par
		c.Inject = "panic" // every trial fails at virtual 2 s: the hook counts computed trials
		boom := errors.New("sink is full")
		delivered, computed := 0, 0
		FailureHook = func(*TrialError) { computed++ }
		err := RunPartial(c, nil, func(ti int, tr Trial, te *TrialError) error {
			if delivered++; ti == 2 {
				return boom
			}
			return nil
		})
		FailureHook = nil
		if err != boom {
			t.Fatalf("parallel=%d: got error %v, want the sink's", par, err)
		}
		if delivered != 3 || computed != 3 {
			t.Fatalf("parallel=%d: %d trials delivered and %d hooked after the sink failed at trial 2, want 3 and 3",
				par, delivered, computed)
		}
	}
}

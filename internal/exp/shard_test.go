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

// An interrupted run's samples hold the trials that ran and nothing else: a
// trial the run never reached is absent too, not a 0 % bufRatio / 0 bit/s
// sample. The interrupt closes while trial 0's failure is delivered; by then
// the ordered stream's window lets at most trials 1–4 have started, so most
// of the twelve never run.
func TestInterruptedRunHasNoPhantomSamples(t *testing.T) {
	c := tracedCfg()
	c.Trials, c.Segments, c.Parallelism = 12, 2, 1
	c.Inject = "panic@0"
	stop := make(chan struct{})
	c.Interrupt = stop
	FailureHook = func(*TrialError) { close(stop) }
	agg := Run(c)
	FailureHook = nil

	ran, scores := 0, 0
	for ti := range agg.Trials {
		if tr := &agg.Trials[ti]; tr.Ran() && !tr.Failed {
			ran++
			scores += len(tr.Scores)
		}
	}
	if ran > 4 || len(agg.Failed) != 1 {
		t.Fatalf("%d trials ran after the interrupt and %d failed, want at most 4 and 1", ran, len(agg.Failed))
	}
	if len(agg.BufRatios) != ran || len(agg.Bitrates) != ran || len(agg.AllScores) != scores {
		t.Fatalf("%d bufRatios, %d bitrates, %d scores from %d trials that ran (%d scores)",
			len(agg.BufRatios), len(agg.Bitrates), len(agg.AllScores), ran, scores)
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

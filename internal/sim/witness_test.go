package sim

import (
	"testing"
	"time"

	"voxel/internal/invariant"
)

// TestWitnessSimClockMonotone: an entry due behind the clock — the clock
// forged past a pending event — is a sim.clock-monotone violation when that
// event comes up, before it runs.
func TestWitnessSimClockMonotone(t *testing.T) {
	s := New(1)
	s.SetChecker(invariant.New())
	s.Schedule(10*time.Millisecond, func() { t.Fatal("an event due behind the clock ran") })
	s.now = 20 * time.Millisecond
	defer func() {
		r := recover()
		if v, ok := invariant.AsViolation(r); !ok || v.Rule != invariant.SimClockMonotone {
			t.Fatalf("recovered %v, want a sim.clock-monotone violation", r)
		}
	}()
	s.Run()
}

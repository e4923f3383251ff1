package netem

import (
	"testing"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/sim"
)

// TestWitnessNetemDoneExactlyOnce: a doubled arrival — a second event for a
// one-copy delivery record, as a mis-scheduled copy would be — reaches the
// record after its only copy ran Done and went back to the store. That is a
// netem.done-exactly-once violation; unchecked, it would find no copy due.
func TestWitnessNetemDoneExactlyOnce(t *testing.T) {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	l := NewFixedLink(s, 8e6, time.Millisecond, 4) // served at 1 ms, arrives at 2 ms
	done := 0
	l.Send(Datagram{Size: 1000, Deliver: func() {}, Done: func() { done++ }})
	s.RunUntil(time.Millisecond)
	r := l.store.All()[0]
	if r.copies != 1 {
		t.Fatalf("the record has %d copies due, want 1", r.copies)
	}
	s.Schedule(time.Millisecond, r.arrive)
	defer func() {
		rec := recover()
		if v, ok := invariant.AsViolation(rec); !ok || v.Rule != invariant.NetemDoneExactlyOnce {
			t.Fatalf("a doubled arrival: recovered %v (Done ran %d times, copies due %d), want a netem.done-exactly-once violation", rec, done, r.copies)
		}
		if done != 1 {
			t.Fatalf("Done ran %d times, want once", done)
		}
	}()
	s.Run()
}

// TestWitnessNetemDatagramConservation: a forged offer count — one datagram
// more than the link was ever sent — is a netem.datagram-conservation
// violation at the next service completion.
func TestWitnessNetemDatagramConservation(t *testing.T) {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	l := NewFixedLink(s, 8e6, time.Millisecond, 4)
	l.Send(Datagram{Size: 1000})
	l.stats.Sent++
	defer func() {
		r := recover()
		if v, ok := invariant.AsViolation(r); !ok || v.Rule != invariant.NetemDatagramConservation {
			t.Fatalf("recovered %v, want a netem.datagram-conservation violation", r)
		}
	}()
	s.Run()
}

package sim

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"voxel/internal/invariant"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("now = %v, want 3ms", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events executed out of insertion order: %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, s.Schedule(time.Duration(i)*time.Millisecond, func() { got = append(got, i) }))
	}
	s.Cancel(evs[5])
	s.Cancel(evs[13])
	s.Run()
	if len(got) != 18 {
		t.Fatalf("got %d events, want 18", len(got))
	}
	for _, v := range got {
		if v == 5 || v == 13 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	s := New(1)
	var got []Time
	e := s.Schedule(time.Millisecond, func() { got = append(got, s.Now()) })
	s.Reschedule(e, 5*time.Millisecond)
	s.Run()
	if len(got) != 1 || got[0] != 5*time.Millisecond {
		t.Fatalf("rescheduled event fired at %v, want [5ms]", got)
	}
}

func TestRescheduleTakesFreshSequence(t *testing.T) {
	s := New(1)
	var got []int
	e := s.Schedule(time.Millisecond, func() { got = append(got, 0) })
	s.Schedule(2*time.Millisecond, func() { got = append(got, 1) })
	// Moving e to the same instant as event 1 must order it after: the
	// rescheduled event takes a fresh insertion sequence.
	s.Reschedule(e, 2*time.Millisecond)
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", got)
	}
}

// Regression: Reschedule used to copy a freshly scheduled event's fields
// into the caller's handle, leaving the handle's heap index stale once the
// heap reordered — a later Cancel(e) removed whatever event happened to sit
// at that index. Rearm must keep the handle live so Cancel hits the right
// event.
func TestRescheduleThenCancelRemovesRightEvent(t *testing.T) {
	s := New(1)
	fired := make([]bool, 6)
	var evs []*Event
	for i := 0; i < 6; i++ {
		i := i
		evs = append(evs, s.Schedule(Time(i+1)*time.Millisecond, func() { fired[i] = true }))
	}
	// Push event 0 far into the future, forcing the heap to reorder around
	// it, then schedule more events so indices shuffle further.
	s.Reschedule(evs[0], 50*time.Millisecond)
	for i := 0; i < 4; i++ {
		s.Schedule(Time(10+i)*time.Millisecond, func() {})
	}
	s.Cancel(evs[0])
	s.Run()
	for i := 1; i < 6; i++ {
		if !fired[i] {
			t.Fatalf("event %d did not fire: canceling the rescheduled event removed it", i)
		}
	}
	if fired[0] {
		t.Fatal("canceled (rescheduled) event fired anyway")
	}
}

func TestRescheduleFiredOrCanceledIsNoop(t *testing.T) {
	s := New(1)
	n := 0
	e := s.Schedule(time.Millisecond, func() { n++ })
	s.Run()
	s.Reschedule(e, 5*time.Millisecond) // already fired: must not rearm
	s.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	e2 := s.Schedule(time.Millisecond, func() { n++ })
	s.Cancel(e2)
	s.Reschedule(e2, 5*time.Millisecond) // canceled: must not resurrect
	s.Run()
	if n != 1 {
		t.Fatalf("canceled event resurrected; fired %d times, want 1", n)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(time.Second, func() { got = append(got, 1) })
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.RunUntil(2 * time.Second)
	if len(got) != 1 {
		t.Fatalf("got %v, want only first event", got)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s", s.Now())
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("got %v, want both events after Run", got)
	}
}

func TestRunUntilDrainedQueueAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	n := 0
	s.Schedule(1*time.Millisecond, func() { n++; s.Halt() })
	s.Schedule(2*time.Millisecond, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("executed %d events after halt, want 1", n)
	}
}

func TestEventsScheduledDuringExecution(t *testing.T) {
	s := New(1)
	var got []Time
	s.Schedule(time.Millisecond, func() {
		s.Schedule(time.Millisecond, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 1 || got[0] != 2*time.Millisecond {
		t.Fatalf("nested event at %v, want 2ms", got)
	}
}

func TestSameInstantScheduledDuringExecutionRuns(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(time.Millisecond, func() {
		s.Schedule(0, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Fatal("zero-delay event scheduled mid-execution did not run")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var got []int
		var rec func(depth int)
		rec = func(depth int) {
			got = append(got, int(s.Rand().Int63n(1000)))
			if depth < 50 {
				s.Schedule(Time(s.Rand().Int63n(int64(time.Millisecond))), func() { rec(depth + 1) })
			}
		}
		s.Schedule(0, func() { rec(0) })
		s.Run()
		return got
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimer(t *testing.T) {
	s := New(1)
	fires := 0
	tm := NewTimer(s, func() { fires++ })
	tm.Arm(time.Second)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	tm.Arm(2 * time.Second) // re-arm replaces
	s.Run()
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v, want 2s (re-armed deadline)", s.Now())
	}
	tm.Arm(time.Second)
	tm.Stop()
	s.Run()
	if fires != 1 {
		t.Fatalf("stopped timer fired; fires = %d", fires)
	}
}

func TestTimerDeadline(t *testing.T) {
	s := New(1)
	tm := NewTimer(s, func() {})
	if _, ok := tm.Deadline(); ok {
		t.Fatal("unarmed timer reports a deadline")
	}
	tm.ArmAt(7 * time.Second)
	at, ok := tm.Deadline()
	if !ok || at != 7*time.Second {
		t.Fatalf("deadline = %v,%v want 7s,true", at, ok)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the maximum delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New(7)
		var fired []Time
		var max Time
		for _, r := range raw {
			d := Time(r % 1e9)
			if d > max {
				max = d
			}
			s.Schedule(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset leaves exactly the others to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		count := int(n%64) + 1
		s := New(3)
		fired := make([]bool, count)
		evs := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			evs[i] = s.Schedule(Time(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Cancel(evs[i])
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			want := mask&(1<<uint(i)) == 0
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Regression: RunUntil used to advance now to the deadline even when Halt
// fired mid-run. A halted sim must freeze time at the last executed event.
func TestRunUntilHaltFreezesClock(t *testing.T) {
	s := New(1)
	s.Schedule(time.Millisecond, func() { s.Halt() })
	s.Schedule(2*time.Millisecond, func() { t.Fatal("event after halt fired") })
	s.RunUntil(10 * time.Millisecond)
	if s.Now() != time.Millisecond {
		t.Fatalf("now = %v after mid-run halt, want 1ms (frozen at halting event)", s.Now())
	}
	if !s.Halted() {
		t.Fatal("Halted() = false after Halt")
	}
	// Repeated RunUntil on a halted sim stays frozen too.
	s.RunUntil(20 * time.Millisecond)
	if s.Now() != time.Millisecond {
		t.Fatalf("now = %v after RunUntil on halted sim, want 1ms", s.Now())
	}
}

func TestCanceledAndFiredAreDistinct(t *testing.T) {
	s := New(1)
	fired := s.Schedule(time.Millisecond, func() {})
	canceled := s.Schedule(2*time.Millisecond, func() {})
	s.Cancel(canceled)
	s.Run()
	if !fired.Fired() || fired.Canceled() {
		t.Fatalf("fired event: Fired=%v Canceled=%v, want true,false", fired.Fired(), fired.Canceled())
	}
	if !canceled.Canceled() || canceled.Fired() {
		t.Fatalf("canceled event: Canceled=%v Fired=%v, want true,false", canceled.Canceled(), canceled.Fired())
	}
	pending := s.Schedule(time.Millisecond, func() {})
	if pending.Canceled() || pending.Fired() {
		t.Fatal("pending event reports a terminal state")
	}
}

// Regression: a handle to a fired event must stay inert — Cancel and
// Reschedule on it are no-ops — so deadline holders can't accidentally
// re-arm it before the scheduler recycles it.
func TestUseAfterFireHandleIsInert(t *testing.T) {
	s := New(1)
	n := 0
	e := s.Schedule(time.Millisecond, func() { n++ })
	s.Run()
	s.Reschedule(e, 5*time.Millisecond)
	s.Cancel(e) // must not double-free the handle into the pool
	s.Run()
	if n != 1 {
		t.Fatalf("fired %d times after use-after-fire Reschedule, want 1", n)
	}
	// The double-free guard matters: if Cancel had pushed e to the freelist
	// again, two future schedules would receive the same handle.
	a := s.Schedule(time.Millisecond, func() {})
	bb := s.Schedule(time.Millisecond, func() {})
	if a == bb {
		t.Fatal("freelist corrupted: two live events share one handle")
	}
}

// Regression: a Timer whose event fired must not cancel the recycled
// handle's next owner when stopped. The wrapper drops the handle before
// the callback runs, which this pins.
func TestTimerStopAfterFireDoesNotKillRecycledEvent(t *testing.T) {
	s := New(1)
	tm := NewTimer(s, func() {})
	tm.Arm(time.Millisecond)
	s.Run()
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
	// This Schedule recycles the timer's Event off the freelist (LIFO).
	hit := false
	e2 := s.Schedule(time.Millisecond, func() { hit = true })
	tm.Stop() // must not cancel e2
	s.Run()
	if !hit {
		t.Fatalf("Timer.Stop canceled a recycled event it no longer owns (e2=%p)", e2)
	}
}

// Lazy cancellation: Pending must count live events only, even though the
// canceled entry's tombstone is still waiting in its wheel slot.
func TestPendingExcludesLazilyCanceled(t *testing.T) {
	s := New(1)
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = s.Schedule(Time(i+1)*time.Millisecond, func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	s.Cancel(evs[3])
	s.Cancel(evs[7])
	s.Cancel(evs[7]) // double cancel must not double-count
	if s.Pending() != 8 {
		t.Fatalf("Pending = %d after 2 cancels, want 8", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", s.Pending())
	}
	if s.Executed() != 8 {
		t.Fatalf("Executed = %d, want 8", s.Executed())
	}
}

// A canceled event's handle is recycled immediately; the orphaned wheel
// entry must never fire the handle's new owner early.
func TestCancelRecycleCannotFireEarly(t *testing.T) {
	s := New(1)
	e := s.Schedule(5*time.Millisecond, func() { t.Fatal("canceled event fired") })
	s.Cancel(e)
	var at Time
	e2 := s.Schedule(9*time.Millisecond, func() { at = s.Now() })
	if e2 != e {
		t.Skip("freelist did not recycle the handle; aliasing path not exercised")
	}
	s.Run()
	if at != 9*time.Millisecond {
		t.Fatalf("recycled event fired at %v (via the orphaned 5ms entry?), want 9ms", at)
	}
}

// Steady-state Schedule/Cancel/Reschedule must not allocate: events come
// from the freelist and wheel buckets recycle their backing arrays. Each
// round also schedules into the slot being drained (merged into the due
// run), past the wheel (the overflow heap pushes it, and pops it on
// promotion), and crowds one slot past insertion sort's reach (its drain
// heapsorts). AllocsPerRun truncates, so any o(1) amortized growth still
// reads 0.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	s := New(1)
	nop := func() {}
	chain := func() { s.Schedule(0, nop) }
	op := func() {
		e := s.Schedule(3*time.Millisecond, nop)
		s.Reschedule(e, s.Now()+7*time.Millisecond)
		s.Cancel(e)
		s.Schedule(2*time.Millisecond, chain)
		s.Schedule(wheelSpan+time.Millisecond, nop)
		for i := 0; i < 40; i++ {
			s.Schedule(time.Millisecond, nop)
		}
		s.RunUntil(s.Now() + 100*time.Microsecond)
	}
	for i := 0; i < 5000; i++ { // warm pools, bucket and due capacities
		op()
	}
	if avg := testing.AllocsPerRun(5000, op); avg != 0 {
		t.Fatalf("steady-state schedule/reschedule/cancel allocates %v allocs/op, want 0", avg)
	}

	// A second world on the same kernel starts warm: the wheel, the events
	// and the bucket arrays are the first world's, so it allocates nothing
	// from its first event on — counted over the whole world, where a
	// rebuilt wheel (one allocation) could not hide in a truncated average.
	// The count is process-wide, and the runtime's own background work (the
	// scavenger re-arming its timer) can allocate a few bytes in any window;
	// a kernel that allocates per world does so in every world, so one of
	// three must count zero.
	var n, bytes uint64
	for world := int64(2); world <= 4; world++ {
		s.Run() // reset disarms an event still pending but does not free it
		s.reset()
		s.rng.Seed(world)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5000; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if n, bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n == 0 {
			return
		}
	}
	t.Fatalf("every world on a recycled kernel allocated, the last %d times (%d bytes), want 0", n, bytes)
}

// A recycled kernel is in the state New builds: nothing of the dirty world
// it came from can be observed, or is still referenced.
func TestRecycledKernelLooksFresh(t *testing.T) {
	s := New(3)
	dirty(s, 3)
	occupied := 0
	for _, word := range s.occ {
		occupied += bits.OnesCount64(word)
	}
	if s.Pending() == 0 || occupied == 0 || len(s.overflow) == 0 || s.duePos == len(s.due) || !s.Halted() || len(s.free) == 0 {
		t.Fatalf("the dirty world is too tidy to prove anything: pending=%d buckets=%d overflow=%d due=%d/%d halted=%v free=%d",
			s.Pending(), occupied, len(s.overflow), s.duePos, len(s.due), s.Halted(), len(s.free))
	}
	var stale *Event
	for _, en := range s.overflow {
		if en.ev.state == statePending {
			stale = en.ev
		}
	}
	s.SetChecker(invariant.New())

	s.reset()
	s.rng.Seed(3)
	if s.Now() != 0 || s.Executed() != 0 || s.Pending() != 0 || s.Halted() || s.Checker() != nil ||
		s.seq != 0 || s.cursor != 0 || s.duePos != 0 || len(s.due) != 0 || len(s.overflow) != 0 {
		t.Fatalf("recycled kernel is not at its origin: %+v", s)
	}
	for _, word := range s.occ {
		if word != 0 {
			t.Fatal("recycled kernel has occupied buckets")
		}
	}
	for b, bucket := range s.slots {
		if bucket != nil {
			t.Fatalf("recycled kernel still holds bucket %d", b)
		}
	}
	arrays := append([][]entry{s.due, s.overflow}, s.spare...)
	for _, a := range arrays {
		for _, en := range a[:cap(a)] {
			if en != (entry{}) {
				t.Fatalf("a recycled bucket array still holds %+v", en)
			}
		}
	}
	for _, e := range s.free {
		if e.Fn != nil {
			t.Fatal("a free event still holds its callback")
		}
	}
	fresh := New(3)
	for i := 0; i < 100; i++ {
		if a, b := s.Rand().Int63(), fresh.Rand().Int63(); a != b {
			t.Fatalf("random draw %d: recycled %d, fresh %d", i, a, b)
		}
	}
	// A handle the dead world kept is inert: it cannot touch the new world.
	if stale == nil || stale.Fn != nil || !stale.Canceled() {
		t.Fatalf("an event pending at release was not disarmed: %+v", stale)
	}
	free := len(s.free)
	s.Cancel(stale)
	s.Reschedule(stale, time.Second)
	if s.Pending() != 0 || len(s.free) != free {
		t.Fatal("a stale handle acted on the recycled kernel")
	}
}

// What a world scheduled holds the world: a timer's callback closes over
// its connection. A released kernel must not keep any of it alive.
func TestReleasedKernelPinsNothing(t *testing.T) {
	s := New(1)
	collected := make(chan struct{})
	func() {
		world := new([1 << 10]byte)
		runtime.SetFinalizer(world, func(*[1 << 10]byte) { close(collected) })
		touch := func() { world[0]++ }
		s.Schedule(time.Millisecond, touch)   // fires: its drained bucket array goes to spare
		s.Schedule(3*time.Millisecond, touch) // stays in a bucket
		s.Schedule(time.Hour, touch)          // stays in overflow
		NewTimer(s, touch).Arm(30 * time.Second)
		s.RunUntil(2 * time.Millisecond)
		s.Schedule(0, touch) // stays in the due run
	}()
	s.Release()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(s) // whether or not the pool kept it
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the released kernel still references what its pending events captured")
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	var next func()
	remaining := b.N
	next = func() {
		if remaining > 0 {
			remaining--
			s.Schedule(time.Microsecond, next)
		}
	}
	s.Schedule(0, next)
	s.Run()
}

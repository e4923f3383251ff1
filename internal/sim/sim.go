// Package sim provides a deterministic discrete-event simulation kernel.
//
// All VOXEL experiments run on virtual time: the transport, the network
// emulation, the player, and the cross-traffic generator schedule callbacks
// on a shared event loop. Two runs with the same seed produce identical
// results, and simulated minutes complete in real milliseconds.
//
// # Scheduler structure
//
// The kernel is a two-level hierarchical timing wheel rather than a binary
// heap. Virtual time is quantized into ticks of 2^tickShift nanoseconds; a
// near wheel of wheelSlots per-tick buckets covers the next wheelSpan of
// virtual time, and events farther out wait in an overflow min-heap keyed
// by (time, insertion sequence). As the wheel's window advances, overflow
// events whose slot enters the window are promoted into their bucket.
// Buckets are plain appended slices; a slot is sorted by (time, sequence)
// only when the cursor reaches it, so scheduling is O(1) and the total
// firing order is exactly the (time, insertion-sequence) order the old
// heap produced — tie-broken by sequence, past times clamped to now.
//
// Cancel and Reschedule are lazy: they never search the wheel. Cancel marks
// the event canceled (a tombstone — the bucket entry is skipped when its
// slot drains). Reschedule bumps the event's sequence; when the deadline
// moves later — the retransmission-timer pattern, where every packet pushes
// the deadline out — the standing wheel entry is kept and simply hops
// forward when its slot drains, so rearm storms cost O(1) field updates.
// Only a deadline moving earlier inserts a fresh entry (orphaning the old
// one as a tombstone). Entries carry the sequence they were inserted with,
// so a stale entry can never fire a recycled event: event handles are
// pooled, and the global sequence counter never repeats within a world (a
// released kernel starts the next one at zero, with no entry left in it).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"voxel/internal/invariant"
)

// Time is virtual time measured as a duration since the start of the
// simulation. It is kept distinct from time.Time on purpose: there is no
// wall-clock anchor, and arithmetic on durations is all the kernel needs.
type Time = time.Duration

// Wheel geometry. One slot covers 2^tickShift ns (≈16.4µs); the near wheel
// holds wheelSlots of them, so events within wheelSpan (≈134ms) of the
// cursor land in a bucket and everything farther waits in the overflow
// heap. The bounds fit the workload: pacing, ACK delay, and netem latency
// events live well inside the window, while PTO (~100ms) sits near its
// edge and only idle/keep-alive/player-sleep timers overflow.
const (
	tickShift  = 14
	wheelBits  = 13
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64

	// wheelSpan is the virtual-time horizon covered by the near wheel.
	wheelSpan = Time(wheelSlots << tickShift)

	// infTime is a deadline beyond any schedulable event.
	infTime = Time(math.MaxInt64)
)

// Event lifecycle states. The zero state is pending because events only
// reach user code via Schedule/At, which arm them.
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// Event is a scheduled callback. Events are ordered by time; ties break by
// insertion sequence so that scheduling order is deterministic.
//
// Event handles are owned by the scheduler: once an event has fired or been
// canceled, the handle must not be used again (the Event may be recycled for
// a later Schedule/At call, at which point Cancel/Reschedule through the old
// handle would act on the new, unrelated event). Holders that outlive their
// event — like Timer — must drop the pointer when it fires. Until the handle
// is recycled, Fired and Canceled report which terminal state it reached,
// and Cancel/Reschedule on it are safe no-ops.
type Event struct {
	At Time // current deadline; may sit later than the placed wheel entry
	Fn func()

	// seq is the sequence of the current deadline — the (At, seq) pair is
	// the event's position in the total firing order. placed/placedAt
	// identify the wheel entry physically standing for this event: when a
	// Reschedule moves the deadline later, the standing entry is kept
	// (placed != seq) and hops forward when it drains, so rearm storms
	// never touch the wheel.
	seq      uint64
	placed   uint64
	placedAt Time
	state    uint8
}

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.state == stateFired }

// entry is one scheduled occurrence of an event. The wheel stores entries
// by value; seq is the event's sequence at insertion time, so an entry is
// live only while it matches the event's current sequence — Reschedule and
// handle recycling bump the sequence, turning old entries into tombstones.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; everything in a simulation runs on its event loop.
type Sim struct {
	now    Time
	seq    uint64
	rng    *rand.Rand
	nexec  uint64
	halted bool
	live   int // scheduled events that are neither fired nor canceled

	// cursor is the absolute slot index the wheel has drained up to. The
	// near window is (cursor, cursor+wheelSlots); slot cursor itself — and
	// anything behind it, reachable when the cursor has scanned ahead of
	// now — is merged directly into due.
	cursor   int64
	slots    [][]entry // wheelSlots buckets, indexed by slot&wheelMask
	occ      []uint64  // occupancy bitmap over buckets
	overflow entryHeap // events beyond the near window, min (at, seq)

	// due is the sorted run of entries at the front of the timeline,
	// consumed from duePos. Refill swaps the next non-empty bucket in.
	due    []entry
	duePos int

	free  []*Event  // recycled events; Schedule/At pop from here
	spare [][]entry // drained bucket arrays, reissued to empty buckets

	check *invariant.Checker // nil = invariant checking disabled
}

// kernels holds released kernels. A kernel's storage — the wheel's 8,192
// bucket headers above all, 192 KB of pointers — costs more than everything
// a short trial schedules on it, so it outlives its world.
var kernels sync.Pool

// New returns a simulator whose random source is seeded with seed. It may
// be a recycled one (see Release), which no caller can tell from a fresh
// one: Seed restarts the stream rand.NewSource(seed) would produce.
func New(seed int64) *Sim {
	if s, _ := kernels.Get().(*Sim); s != nil {
		s.rng.Seed(seed)
		return s
	}
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		slots: make([][]entry, wheelSlots),
		occ:   make([]uint64, wheelWords),
	}
}

// Release ends the simulator's world and hands its storage to a later New.
// The caller must be done with the simulator and with everything scheduled
// on it, and must not release one that panicked inside an event: it may be
// halfway through fire. Releasing is optional; an unreleased kernel is
// simply collected.
func (s *Sim) Release() {
	s.reset()
	kernels.Put(s)
}

// reset returns the kernel to the state New built it in, keeping what it
// allocated: the wheel, the bucket arrays (all in spare now), the event
// free list and the capacity of due and overflow. Nothing of the old world
// stays reachable — an idle timer's callback closes over its connection,
// and through it the whole world — so every array is zeroed to capacity,
// not to length: drained arrays keep stale entries beyond it.
func (s *Sim) reset() {
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			b := w<<6 + bits.TrailingZeros64(word)
			s.spare = append(s.spare, s.slots[b])
			s.slots[b] = nil
		}
		s.occ[w] = 0
	}
	for i, a := range s.spare {
		s.spare[i] = scrub(a)
	}
	s.due, s.duePos = scrub(s.due), 0
	s.overflow = scrub(s.overflow)
	s.now, s.seq, s.nexec, s.live, s.cursor = 0, 0, 0, 0, 0
	s.halted, s.check = false, nil
}

// scrub empties a bucket array for the next world. Events still pending
// behind its entries are disarmed — a handle the dead world kept must not
// act on the next world's kernel — but not pushed on the free list: one
// event can stand behind several entries.
func scrub(a []entry) []entry {
	for _, en := range a {
		if e := en.ev; e.state == statePending {
			e.state, e.Fn = stateCanceled, nil
		}
	}
	clear(a[:cap(a)])
	return a[:0]
}

// SetChecker arms (or, with nil, disarms) cross-layer invariant checking
// for this world. The kernel itself asserts clock monotonicity; layers
// built on the kernel read the checker back via Checker.
func (s *Sim) SetChecker(c *invariant.Checker) { s.check = c }

// Checker returns the armed invariant checker (nil when checking is off).
func (s *Sim) Checker() *invariant.Checker { return s.check }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.nexec }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run as soon as the loop reaches the current instant again).
func (s *Sim) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at the absolute virtual time t. Times in the past are clamped
// to now.
func (s *Sim) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.At, e.Fn, e.seq, e.state = t, fn, s.seq, statePending
	e.placed, e.placedAt = s.seq, t
	s.live++
	s.place(entry{at: t, seq: s.seq, ev: e})
	return e
}

// place routes an entry to the due run, a wheel bucket, or the overflow
// heap, depending on where its slot sits relative to the cursor's window.
func (s *Sim) place(en entry) {
	slot := int64(en.at) >> tickShift
	switch {
	case slot <= s.cursor:
		s.insertDue(en)
	case slot < s.cursor+wheelSlots:
		b := int(slot & wheelMask)
		if s.slots[b] == nil {
			// Empty bucket: reuse a drained array so steady-state
			// scheduling stays allocation-free as the write frontier
			// moves around the wheel.
			if n := len(s.spare); n > 0 {
				s.slots[b] = s.spare[n-1]
				s.spare[n-1] = nil
				s.spare = s.spare[:n-1]
			}
		}
		s.slots[b] = append(s.slots[b], en)
		s.occ[b>>6] |= 1 << (uint(b) & 63)
	default:
		s.overflow.push(en)
	}
}

// insertDue merges an entry into the unconsumed tail of the due run,
// keeping it sorted by (at, seq). The common case — an entry later than
// everything pending — is a plain append.
func (s *Sim) insertDue(en entry) {
	// Reclaim the consumed prefix once it dominates the slice, so a
	// workload that never leaves one slot (zero-delay chains) stays O(1)
	// in memory instead of growing with total events.
	if s.duePos > 64 && s.duePos*2 >= len(s.due) {
		n := copy(s.due, s.due[s.duePos:])
		s.due = s.due[:n]
		s.duePos = 0
	}
	lo, hi := s.duePos, len(s.due)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(s.due[mid], en) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.due = append(s.due, entry{})
	copy(s.due[lo+1:], s.due[lo:])
	s.due[lo] = en
}

// Cancel removes a pending event. Canceling an event that already fired or
// was already canceled is a no-op. Cancellation is O(1): the wheel entry
// becomes a tombstone that is discarded when its slot drains.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.state != statePending {
		return
	}
	e.state = stateCanceled
	e.Fn = nil
	s.live--
	s.free = append(s.free, e)
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. The event is re-armed in place — the caller's handle stays
// valid — and takes a fresh insertion sequence, so it orders after events
// already scheduled for the same instant. Times in the past are clamped to
// now. Events that already fired or were canceled are left untouched.
// Rescheduling is O(1) and, when the deadline moves later, touches no
// wheel structure at all: the standing entry defers itself when it drains.
func (s *Sim) Reschedule(e *Event, t Time) {
	if e == nil || e.state != statePending {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.At = t
	e.seq = s.seq
	if t >= e.placedAt {
		// Deadline moved later (or stayed put): the entry already in the
		// wheel arrives first and will hop forward to (e.At, e.seq) — the
		// exact position an eager re-insert would occupy — when it drains.
		return
	}
	e.placed = s.seq
	e.placedAt = t
	s.place(entry{at: t, seq: s.seq, ev: e})
}

// Halt stops the event loop after the currently executing event returns.
func (s *Sim) Halt() { s.halted = true }

// Halted reports whether Halt has been called. A halted simulator executes
// no further events and its clock is frozen at the last executed event.
func (s *Sim) Halted() bool { return s.halted }

// peek positions duePos on the next live entry whose slot starts at or
// before limit, skipping tombstones, and returns it without consuming it.
// The returned entry's time may still exceed limit by up to one slot;
// callers enforcing a deadline must compare against entry.at.
func (s *Sim) peek(limit Time) (entry, bool) {
	for {
		for s.duePos < len(s.due) {
			en := s.due[s.duePos]
			e := en.ev
			if e.seq == en.seq && e.state == statePending {
				return en, true
			}
			s.duePos++
			if e.placed == en.seq && e.state == statePending {
				// The event's deadline was lazily moved later; this entry is
				// its standing placement. Hop it forward to the current
				// (At, seq) — still in the future, so ordering is exact.
				e.placed = e.seq
				e.placedAt = e.At
				s.place(entry{at: e.At, seq: e.seq, ev: e})
			}
			// Otherwise: tombstone — canceled, superseded, or recycled.
		}
		if !s.refill(limit) {
			return entry{}, false
		}
	}
}

// refill advances the cursor to the next slot holding entries — promoting
// overflow events that enter the window on the way — and swaps that bucket
// into due, sorted. It reports false when there is nothing to drain at or
// before limit (the cursor is left where it is so a later, larger limit
// can resume the scan).
func (s *Sim) refill(limit Time) bool {
	for {
		if ns, ok := s.nextOccupied(); ok {
			if Time(ns<<tickShift) > limit {
				return false
			}
			s.cursor = ns
			s.promote()
			b := int(ns & wheelMask)
			s.occ[b>>6] &^= 1 << (uint(b) & 63)
			if old := s.due[:0]; cap(old) > 0 {
				s.spare = append(s.spare, old)
			}
			s.due, s.slots[b] = s.slots[b], nil
			s.duePos = 0
			sortEntries(s.due)
			return true
		}
		if len(s.overflow) == 0 {
			return false
		}
		// The wheel is empty: jump the window to the overflow head. Its
		// entries land in due (slot == cursor) or in buckets ahead of it.
		head := s.overflow[0]
		if head.at > limit {
			return false
		}
		s.cursor = int64(head.at) >> tickShift
		s.promote()
		if s.duePos < len(s.due) {
			return true
		}
	}
}

// promote moves overflow entries whose slot has entered the near window
// into the wheel. The heap is (at, seq)-ordered and at is monotone in
// slot, so popping from the head visits exactly the entries due in.
func (s *Sim) promote() {
	horizon := Time((s.cursor + wheelSlots) << tickShift)
	for len(s.overflow) > 0 && s.overflow[0].at < horizon {
		s.place(s.overflow.pop())
	}
}

// nextOccupied scans the occupancy bitmap in window order — slot cursor
// first, wrapping across all wheelSlots buckets — and returns the absolute
// slot index of the nearest non-empty bucket.
func (s *Sim) nextOccupied() (int64, bool) {
	base := s.cursor & wheelMask
	w := int(base >> 6)
	off := uint(base & 63)
	if word := s.occ[w] >> off; word != 0 {
		return s.cursor + int64(bits.TrailingZeros64(word)), true
	}
	for i := 1; i <= wheelWords; i++ {
		idx := (w + i) & (wheelWords - 1)
		word := s.occ[idx]
		if word == 0 {
			continue
		}
		p := int64(idx<<6) + int64(bits.TrailingZeros64(word))
		delta := (p - base) & wheelMask
		if delta == 0 {
			continue // bit base in the revisited word; covered by the first check
		}
		return s.cursor + delta, true
	}
	return 0, false
}

// fire consumes the peeked entry at duePos, advances the clock, and runs
// the callback.
func (s *Sim) fire(en entry) {
	s.duePos++
	if en.at < s.now {
		// With a checker armed this becomes a typed Violation the harness
		// can attribute; otherwise keep the legacy panic text.
		s.check.Failf("sim", "sim.clock-monotone",
			"next event at %v behind clock %v", en.at, s.now)
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", en.at, s.now))
	}
	s.now = en.at
	e := en.ev
	fn := e.Fn
	e.Fn = nil
	e.state = stateFired
	s.live--
	s.nexec++
	fn()
	s.free = append(s.free, e)
}

// Step executes the next pending event, advancing virtual time to it.
// It reports whether an event was executed.
func (s *Sim) Step() bool {
	if s.halted {
		return false
	}
	en, ok := s.peek(infTime)
	if !ok {
		return false
	}
	s.fire(en)
	return true
}

// Run executes events until the queue drains or Halt is called.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with At <= deadline, then sets now to deadline
// (if the queue drained or the next event lies beyond it) and returns. A
// halted simulator does not advance: its clock stays frozen at the last
// executed event.
func (s *Sim) RunUntil(deadline Time) {
	for !s.halted {
		en, ok := s.peek(deadline)
		if !ok || en.at > deadline {
			break
		}
		s.fire(en)
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// RunUntilBudget is RunUntil with an event budget: it executes at most
// budget events with At <= deadline and reports whether the budget was
// exhausted with runnable work still pending. When it returns false the
// semantics are exactly RunUntil's (the clock lands on deadline); when it
// returns true the clock stays at the last executed event so a watchdog
// can attribute the overrun to a precise virtual instant. A zero-delay
// event storm — the failure mode a plain RunUntil cannot escape, because
// the clock never reaches the deadline — is bounded by the budget.
func (s *Sim) RunUntilBudget(deadline Time, budget uint64) (exhausted bool) {
	for !s.halted {
		en, ok := s.peek(deadline)
		if !ok || en.at > deadline {
			break
		}
		if budget == 0 {
			return true
		}
		s.fire(en)
		budget--
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
	return false
}

// Pending returns the number of scheduled events (excluding canceled ones,
// whose tombstones may still be waiting to be swept).
func (s *Sim) Pending() int { return s.live }

// entryHeap is a plain binary min-heap of entries ordered by (at, seq).
// It is hand-rolled instead of using container/heap so pushes and pops
// stay free of interface boxing.
type entryHeap []entry

func (h *entryHeap) push(en entry) {
	*h = append(*h, en)
	es := *h
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(es[i], es[parent]) {
			break
		}
		es[i], es[parent] = es[parent], es[i]
		i = parent
	}
}

func (h *entryHeap) pop() entry {
	es := *h
	top := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = entry{}
	es = es[:n]
	*h = es
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && entryLess(es[r], es[l]) {
			min = r
		}
		if !entryLess(es[min], es[i]) {
			break
		}
		es[i], es[min] = es[min], es[i]
		i = min
	}
	return top
}

// sortEntries orders a drained bucket by (at, seq): insertion sort for the
// typical small slot, in-place heapsort beyond that. No allocations either
// way, and (at, seq) is a total order so stability is irrelevant.
func sortEntries(es []entry) {
	n := len(es)
	if n < 2 {
		return
	}
	if n <= 32 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && entryLess(es[j], es[j-1]); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEntries(es, i, n)
	}
	for i := n - 1; i > 0; i-- {
		es[0], es[i] = es[i], es[0]
		siftDownEntries(es, 0, i)
	}
}

func siftDownEntries(es []entry, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		max := l
		if r := l + 1; r < n && entryLess(es[l], es[r]) {
			max = r
		}
		if !entryLess(es[i], es[max]) {
			return
		}
		es[i], es[max] = es[max], es[i]
		i = max
	}
}

// Timer is a re-armable one-shot timer bound to a simulator, mirroring the
// shape of time.Timer for transport retransmission deadlines. Timer is the
// safe way to hold an event across firings: the wrapper drops the handle
// before invoking the callback, so Stop and Arm can never act on a recycled
// Event that now belongs to someone else.
type Timer struct {
	sim  *Sim
	ev   *Event
	fn   func()
	wrap func() // built once: re-arming must not allocate a closure
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
func NewTimer(s *Sim, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	t := &Timer{sim: s, fn: fn}
	t.wrap = func() {
		t.ev = nil
		t.fn()
	}
	return t
}

// Arm (re)sets the timer to fire after d. Any earlier deadline is replaced.
// Re-arming an armed timer reschedules its event in place, which keeps the
// wheel untouched when the deadline only moves later.
func (t *Timer) Arm(d Time) {
	if t.ev != nil {
		if d < 0 {
			d = 0
		}
		t.sim.Reschedule(t.ev, t.sim.Now()+d)
		return
	}
	t.ev = t.sim.Schedule(d, t.wrap)
}

// ArmAt (re)sets the timer to fire at absolute time at.
func (t *Timer) ArmAt(at Time) {
	if t.ev != nil {
		t.sim.Reschedule(t.ev, at)
		return
	}
	t.ev = t.sim.At(at, t.wrap)
}

// Stop disarms the timer if it is pending.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.sim.Cancel(t.ev)
		t.ev = nil
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev != nil }

// Deadline returns the pending deadline; ok is false when unarmed.
func (t *Timer) Deadline() (at Time, ok bool) {
	if t.ev == nil {
		return 0, false
	}
	return t.ev.At, true
}

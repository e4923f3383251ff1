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
// A Timer is the one handle on a scheduled event; Schedule is fire-and-
// forget. Stopping and re-arming a timer are lazy: they never search the
// wheel. Stop marks the event canceled (a tombstone — the bucket entry is
// skipped when its slot drains). Re-arming bumps the event's sequence; when
// the deadline moves later — the retransmission-timer pattern, where every
// packet pushes the deadline out — the standing wheel entry is kept and
// simply hops forward when its slot drains, so rearm storms cost O(1) field
// updates. Only a deadline moving earlier inserts a fresh entry (orphaning
// the old one as a tombstone). Entries carry the sequence they were inserted
// with, so a stale entry can never fire a recycled event: events are pooled,
// and the global sequence counter never repeats within a world (a released
// kernel starts the next one at zero, with no entry left in it).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
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

// Event lifecycle states. The zero state is pending because at arms every
// event it hands out.
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// event is a scheduled callback. Events are ordered by time; ties break by
// insertion sequence so that scheduling order is deterministic.
//
// Events are owned by the scheduler: once one has fired or been canceled it
// goes back on the free list and a later at hands it out again, so a pointer
// kept past that point would act on the new, unrelated event. Timer, the one
// holder, drops its pointer before the callback runs. Until the event is
// handed out again, cancel and reschedule on it are safe no-ops.
type event struct {
	at Time // current deadline; may sit later than the placed wheel entry
	fn func()

	// seq is the sequence of the current deadline — the (at, seq) pair is
	// the event's position in the total firing order. placed/placedAt
	// identify the wheel entry physically standing for this event: when a
	// reschedule moves the deadline later, the standing entry is kept
	// (placed != seq) and hops forward when it drains, so rearm storms
	// never touch the wheel.
	seq      uint64
	placed   uint64
	placedAt Time
	state    uint8
}

// entry is one scheduled occurrence of an event. The wheel stores entries
// by value; seq is the event's sequence at insertion time, so an entry is
// live only while it matches the event's current sequence — reschedule and
// event recycling bump the sequence, turning old entries into tombstones.
type entry struct {
	at  Time
	seq uint64
	ev  *event
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
	now   Time
	seq   uint64
	rng   *rand.Rand
	nexec uint64
	live  int // scheduled events that are neither fired nor canceled

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

	free  []*event  // recycled events; at pops from here
	spare [][]entry // drained bucket arrays, reissued to empty buckets

	locals []local // Local slots in first-Get order, kept across worlds

	check *invariant.Checker // nil = invariant checking disabled
}

// Local is a slot of kernel-local storage: Get hands a layer the same *T on
// every world a kernel serves, made empty the first time. What a layer keeps
// there outlives its world. While a world runs it may point into it; when the
// world ends, Release calls EndWorld on every value whose *T is a WorldEnder,
// and after that nothing in the slot may point into the dead world — no
// callback, connection or payload.
type Local[T any] struct{ _ byte } // not zero-size: each slot has its own address

// WorldEnder is a Local value that takes back what it lent a world: Release
// calls EndWorld once per world, in the order the slots were first got, and
// the value scrubs what it handed out so that the next world can take it.
type WorldEnder interface{ EndWorld() }

// local is one Local slot of a kernel: the slot's address and its *T.
type local struct{ slot, v any }

// Get returns s's value for the slot. A kernel has a handful of slots, so a
// linear scan finds one.
func (l *Local[T]) Get(s *Sim) *T {
	for _, lv := range s.locals {
		if lv.slot == any(l) {
			return lv.v.(*T)
		}
	}
	v := new(T)
	s.locals = append(s.locals, local{l, v})
	return v
}

// Pool is kernel storage for values a world takes and gives back — packet
// records, streams, HTTP responses — kept in a Local slot so that the
// kernel's later worlds take them again instead of making new ones. Get hands
// out a scrubbed value and makes one only when none is stored; Put scrubs one
// and stores it. When the world ends, EndWorld takes back every value the
// world got, those still lent out included — a world can end with packets in
// flight, and never gives its streams and responses back — and the next
// world gets them in the order they were made. That is the order a world
// that Puts nothing got them in, so the next world of the same shape gets
// each value for the request it served before, with the capacity that
// request needed.
//
// A pool needs no lock: a kernel serves one world at a time, on one
// goroutine.
type Pool[T any, P scrubber[T]] struct {
	made []*T // every value p made, first made first
	next int  // made[next:] are stored, untouched since the world began
	free []*T // values Put back in this world; Get takes the last first
}

// scrubber is a pooled value: Scrub returns it to the state Get hands out —
// every field zero but slices kept for their capacity (empty, and clear
// through it when they hold pointers) and callbacks bound to the value
// itself, which pin nothing of a world.
type scrubber[T any] interface {
	*T
	Scrub()
}

// Get returns a stored value, or a new one when none is stored. It clears
// the free-list slot it takes from, so the list holds a value only while it
// is stored.
func (p *Pool[T, P]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	if p.next == len(p.made) {
		p.made = append(p.made, new(T))
	}
	p.next++
	return p.made[p.next-1]
}

// Put scrubs v, which p's Get handed out, and stores it.
func (p *Pool[T, P]) Put(v *T) {
	P(v).Scrub()
	p.free = append(p.free, v)
}

// EndWorld takes back, scrubbed, every value the ending world got. Release
// calls it for a pool kept in a Local slot; a layer whose slot holds several
// pools calls it for each.
func (p *Pool[T, P]) EndWorld() {
	for _, v := range p.made[:p.next] {
		P(v).Scrub()
	}
	clear(p.free)
	p.free, p.next = p.free[:0], 0
}

// All returns every value p made, first made first. Tests read it; the
// slice is p's own.
func (p *Pool[T, P]) All() []*T { return p.made }

// Lent returns how many of p's values are out.
func (p *Pool[T, P]) Lent() int { return p.next - len(p.free) }

// idle holds released kernels, the most recent last. A kernel's storage —
// the wheel's 8,192 bucket headers, 192 KB of pointers, and what its layers
// keep in Local slots — costs more than everything a short trial schedules
// on it, so it outlives its world. The list holds at most GOMAXPROCS kernels,
// as many as can run at once; the lock is taken once by New and once by
// Release, never by an event.
var idle struct {
	sync.Mutex
	kernels []*Sim
}

// New returns a simulator whose random source is seeded with seed. It may
// be a recycled one (see Release), which no caller can tell from a fresh
// one: Seed restarts the stream rand.NewSource(seed) would produce.
func New(seed int64) *Sim {
	idle.Lock()
	var s *Sim
	if n := len(idle.kernels); n > 0 {
		s = idle.kernels[n-1]
		idle.kernels[n-1] = nil
		idle.kernels = idle.kernels[:n-1]
	}
	idle.Unlock()
	if s != nil {
		s.rng.Seed(seed)
		return s
	}
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		slots: make([][]entry, wheelSlots),
		occ:   make([]uint64, wheelWords),
	}
}

// Release ends the simulator's world — each Local value that is a WorldEnder
// takes back what it lent the world — and hands its storage to a later New.
// The caller must be done with the simulator and with everything scheduled
// on it, and must not release one that panicked inside an event: it may be
// halfway through fire. Releasing is optional; an unreleased kernel, or one
// released while GOMAXPROCS others wait, is simply collected.
func (s *Sim) Release() {
	for _, lv := range s.locals {
		if w, ok := lv.v.(WorldEnder); ok {
			w.EndWorld()
		}
	}
	s.reset()
	bound := runtime.GOMAXPROCS(0)
	idle.Lock()
	if len(idle.kernels) < bound {
		idle.kernels = append(idle.kernels, s)
	}
	idle.Unlock()
}

// DropReleased lets go of every released kernel, so the next New builds a
// fresh one: the way a test starts a world on a kernel no world has used.
func DropReleased() {
	idle.Lock()
	clear(idle.kernels)
	idle.kernels = idle.kernels[:0]
	idle.Unlock()
}

// reset returns the kernel to the state New built it in, keeping what it
// allocated: the wheel, the bucket arrays (all in spare now), the event
// free list, the capacity of due and overflow, and the Local slots (which
// Release has told their world ended). Nothing of the old world stays
// reachable — an idle timer's callback closes over its connection, and
// through it the whole world — so every array is zeroed to capacity, not to
// length: drained arrays keep stale entries beyond it.
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
	s.check = nil
}

// scrub empties a bucket array for the next world. Events still pending
// behind its entries are disarmed — a timer the dead world kept must not
// act on the next world's kernel — but not pushed on the free list: one
// event can stand behind several entries.
func scrub(a []entry) []entry {
	for _, en := range a {
		if e := en.ev; e.state == statePending {
			e.state, e.fn = stateCanceled, nil
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
// as zero (run as soon as the loop reaches the current instant again). There
// is no handle: an event that may have to move or be called off is a Timer.
func (s *Sim) Schedule(delay Time, fn func()) {
	s.at(s.now+max(delay, 0), fn)
}

// at schedules fn at the absolute virtual time t and returns its event.
// Times in the past are clamped to now.
func (s *Sim) at(t Time, fn func()) *event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at, e.fn, e.seq, e.state = t, fn, s.seq, statePending
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

// cancel removes a pending event. Canceling an event that already fired or
// was already canceled is a no-op. Cancellation is O(1): the wheel entry
// becomes a tombstone that is discarded when its slot drains.
func (s *Sim) cancel(e *event) {
	if e.state != statePending {
		return
	}
	e.state = stateCanceled
	e.fn = nil
	s.live--
	s.free = append(s.free, e)
}

// reschedule moves a pending event to a new absolute time, preserving its
// callback. The event is re-armed in place — the caller's pointer stays
// valid — and takes a fresh insertion sequence, so it orders after events
// already scheduled for the same instant. Times in the past are clamped to
// now. Events that already fired or were canceled are left untouched.
// Rescheduling is O(1) and, when the deadline moves later, touches no
// wheel structure at all: the standing entry defers itself when it drains.
func (s *Sim) reschedule(e *event, t Time) {
	if e.state != statePending {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.at = t
	e.seq = s.seq
	if t >= e.placedAt {
		// Deadline moved later (or stayed put): the entry already in the
		// wheel arrives first and will hop forward to (e.at, e.seq) — the
		// exact position an eager re-insert would occupy — when it drains.
		return
	}
	e.placed = s.seq
	e.placedAt = t
	s.place(entry{at: t, seq: s.seq, ev: e})
}

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
				// (at, seq) — still in the future, so ordering is exact.
				e.placed = e.seq
				e.placedAt = e.at
				s.place(entry{at: e.at, seq: e.seq, ev: e})
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
		s.check.Failf(invariant.SimClockMonotone,
			"next event at %v behind clock %v", en.at, s.now)
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", en.at, s.now))
	}
	s.now = en.at
	e := en.ev
	fn := e.fn
	e.fn = nil
	e.state = stateFired
	s.live--
	s.nexec++
	fn()
	s.free = append(s.free, e)
}

// drain is the event loop: it executes events due at or before deadline, at
// most budget of them, and reports whether it stopped on the budget with a
// runnable event still pending. It never moves the clock past the last
// executed event.
func (s *Sim) drain(deadline Time, budget uint64) (exhausted bool) {
	for {
		en, ok := s.peek(deadline)
		if !ok || en.at > deadline {
			return false
		}
		if budget == 0 {
			return true
		}
		s.fire(en)
		budget--
	}
}

// Run executes events until the queue drains.
func (s *Sim) Run() { s.drain(infTime, math.MaxUint64) }

// RunUntil executes events due at or before deadline, then sets the clock
// to deadline and returns.
func (s *Sim) RunUntil(deadline Time) { s.RunUntilBudget(deadline, math.MaxUint64) }

// RunUntilBudget is RunUntil with an event budget: it executes at most
// budget events due at or before deadline and reports whether the budget
// was exhausted with runnable work still pending. When it returns false the
// semantics are exactly RunUntil's (the clock lands on deadline); when it
// returns true the clock stays at the last executed event so a watchdog
// can attribute the overrun to a precise virtual instant. A zero-delay
// event storm — the failure mode a plain RunUntil cannot escape, because
// the clock never reaches the deadline — is bounded by the budget.
func (s *Sim) RunUntilBudget(deadline Time, budget uint64) (exhausted bool) {
	if s.drain(deadline, budget) {
		return true
	}
	s.now = max(s.now, deadline)
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
// shape of time.Timer for transport retransmission deadlines. It is the one
// handle on a scheduled event: the wrapper drops its event before invoking
// the callback, so Stop and Arm can never act on a recycled event that now
// belongs to someone else.
type Timer struct {
	sim  *Sim
	ev   *event
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
func (t *Timer) Arm(d Time) { t.ArmAt(t.sim.now + max(d, 0)) }

// ArmAt (re)sets the timer to fire at absolute time at.
func (t *Timer) ArmAt(at Time) {
	if t.ev != nil {
		t.sim.reschedule(t.ev, at)
		return
	}
	t.ev = t.sim.at(at, t.wrap)
}

// Stop disarms the timer if it is pending.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.sim.cancel(t.ev)
		t.ev = nil
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev != nil }

// When returns the time the timer fires at, and whether it is pending.
func (t *Timer) When() (Time, bool) {
	if t.ev == nil {
		return 0, false
	}
	return t.ev.at, true
}

package sim

// Differential proof that the timing-wheel kernel preserves the binary
// heap's firing semantics bit-for-bit: both kernels execute identical
// random schedule/cancel/reschedule/run scripts — including same-instant
// ties, past-time clamps, zero delays, nested scheduling from inside
// callbacks, far-future overflow events, and runs cut short by an event
// budget — and must produce identical execution traces, clocks, budget
// verdicts and counters. Every script runs on the wheel twice: on a kernel
// New just built, and on one that was another world first (recycled), which
// must be indistinguishable.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// kernel is the scheduling surface shared by *Sim and *refSim, generic
// over the handle type so the drivers compile against both concretely.
type kernel[E any] interface {
	Schedule(Time, func())
	at(Time, func()) E
	cancel(E)
	reschedule(E, Time)
	Run()
	RunUntil(Time)
	RunUntilBudget(Time, uint64) bool
	Now() Time
	Pending() int
	Executed() uint64
}

var (
	_ kernel[*event]    = (*Sim)(nil)
	_ kernel[*refEvent] = (*refSim)(nil)
)

// splitmix64 hashes an event id into the deterministic per-event behavior
// both drivers replay, so nested actions never consume shared random state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type traceRec struct {
	id int
	at Time
}

// driver replays a script against one kernel, recording the execution
// trace. Fired callbacks perform nested actions derived purely from the
// event id, so both kernels see the same nested ops iff their execution
// orders match — any divergence shows up as a trace mismatch.
type driver[E any] struct {
	k         kernel[E]
	handles   []E
	trace     []traceRec
	exhausted []bool // each budgeted run's verdict
}

func (d *driver[E]) spawn(at Time, absolute bool) {
	id := len(d.handles)
	if !absolute {
		at += d.k.Now()
	}
	d.handles = append(d.handles, d.k.at(at, func() { d.onFire(id) }))
}

func (d *driver[E]) onFire(id int) {
	d.trace = append(d.trace, traceRec{id, d.k.Now()})
	h := splitmix64(uint64(id))
	switch h % 8 {
	case 0: // near child, possibly a same-instant tie (delay 0)
		d.spawn(Time(h>>8%uint64(2*time.Millisecond)), false)
	case 1: // far child: beyond the wheel horizon, exercises overflow
		d.spawn(wheelSpan+Time(h>>8%uint64(wheelSpan)), false)
	case 2: // cancel some earlier handle (possibly fired/canceled/recycled)
		d.k.cancel(d.handles[int(h>>32)%len(d.handles)])
	case 3: // reschedule an earlier handle, sometimes into the past (clamps)
		target := d.handles[int(h>>32)%len(d.handles)]
		d.k.reschedule(target, d.k.Now()+Time(h>>8%uint64(5*time.Millisecond))-time.Millisecond)
	case 4: // absolute-time child in the past: clamps to now
		d.spawn(d.k.Now()-Time(h>>8%uint64(time.Millisecond)), true)
	}
}

// scriptOp is one pre-generated top-level operation, replayed identically
// against both kernels.
type scriptOp struct {
	kind  int
	delay Time
	id    int
	n     int
}

func genScript(rng *rand.Rand, nops int) []scriptOp {
	ops := make([]scriptOp, 0, nops)
	created := 0
	for i := 0; i < nops; i++ {
		op := scriptOp{kind: rng.Intn(10)}
		switch op.kind {
		case 0, 1, 2: // schedule near (ties likely: coarse delay grid)
			op.delay = Time(rng.Intn(64)) * 250 * time.Microsecond
			created++
		case 3: // schedule far (overflow territory)
			op.delay = wheelSpan + Time(rng.Int63n(int64(3*wheelSpan)))
			created++
		case 4: // schedule very far (seconds to minutes)
			op.delay = Time(rng.Int63n(int64(2 * time.Minute)))
			created++
		case 5: // cancel
			if created == 0 {
				continue
			}
			op.id = rng.Intn(created)
		case 6: // reschedule (sometimes into the past)
			if created == 0 {
				continue
			}
			op.id = rng.Intn(created)
			op.delay = Time(rng.Int63n(int64(20*time.Millisecond))) - 2*time.Millisecond
		case 7: // run a few events, stopping early at a deadline a bit ahead
			op.n = rng.Intn(8)
			op.delay = Time(rng.Intn(80)) * 250 * time.Microsecond // on the near grid: ties with events
		case 8: // run until a deadline a bit ahead, often an event's instant
			if rng.Intn(2) == 0 {
				op.delay = Time(rng.Int63n(int64(50 * time.Millisecond)))
			} else {
				op.delay = Time(rng.Intn(200)) * 250 * time.Microsecond
			}
		case 9: // schedule at an absolute time, sometimes in the past
			op.delay = Time(rng.Int63n(int64(4*time.Millisecond))) - time.Millisecond
			created++
		}
		ops = append(ops, op)
	}
	return ops
}

func replay[E any](k kernel[E], ops []scriptOp) *driver[E] {
	d := &driver[E]{k: k}
	for _, op := range ops {
		switch op.kind {
		case 0, 1, 2, 3, 4:
			d.spawn(op.delay, false)
		case 5:
			if op.id < len(d.handles) {
				k.cancel(d.handles[op.id])
			}
		case 6:
			if op.id < len(d.handles) {
				k.reschedule(d.handles[op.id], k.Now()+op.delay)
			}
		case 7:
			d.exhausted = append(d.exhausted, k.RunUntilBudget(k.Now()+op.delay, uint64(op.n)))
		case 8:
			k.RunUntil(k.Now() + op.delay)
		case 9:
			d.spawn(k.Now()+op.delay, true)
		}
	}
	k.Run()
	return d
}

// dirty makes s as untidy as a dying world can leave a kernel: events
// pending in buckets, in the due run and in overflow, tombstones of
// canceled events, timers lazily moved later (their standing entries point
// at an earlier slot), recycled events, and a run cut short by its event
// budget with the due run half consumed.
func dirty(s *Sim, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	d := &driver[*event]{k: s}
	for i := 0; i < 300; i++ {
		d.spawn(Time(rng.Int63n(int64(3*wheelSpan))), false)
	}
	s.RunUntil(wheelSpan / 3) // fired events spawn, cancel and reschedule on their own
	for i := 0; i < 60; i++ {
		s.cancel(d.handles[rng.Intn(len(d.handles))])
		h := d.handles[rng.Intn(len(d.handles))]
		s.reschedule(h, h.at+Time(rng.Int63n(int64(wheelSpan))))
	}
	for i := 0; i < 16; i++ {
		d.spawn(s.Now(), true) // same instant: lands in the due run
	}
	s.RunUntilBudget(s.Now()+wheelSpan, 8) // leaves half of them in the due run
}

// recycled returns a kernel that was a dirty world, then reset and reseeded
// — what New makes of a released kernel. The pool is bypassed so that the
// kernel under test is certainly a recycled one: sync.Pool may drop what it
// is given, and under the race detector does so at random.
func recycled(seed int64) *Sim {
	s := New(^seed)
	dirty(s, seed)
	s.reset()
	s.rng.Seed(seed)
	return s
}

func diffKernels(t *testing.T, seed int64, nops int) {
	t.Helper()
	ops := genScript(rand.New(rand.NewSource(seed)), nops)
	dh := replay[*refEvent](newRefSim(), ops)
	for _, k := range []struct {
		name string
		sim  *Sim
	}{{"wheel", New(seed)}, {"recycled wheel", recycled(seed)}} {
		dw := replay[*event](k.sim, ops)
		if len(dw.trace) != len(dh.trace) {
			t.Fatalf("seed %d: %s fired %d events, heap fired %d", seed, k.name, len(dw.trace), len(dh.trace))
		}
		for i := range dw.trace {
			if dw.trace[i] != dh.trace[i] {
				t.Fatalf("seed %d: trace diverges at %d: %s %+v, heap %+v", seed, i, k.name, dw.trace[i], dh.trace[i])
			}
		}
		if !slices.Equal(dw.exhausted, dh.exhausted) {
			t.Fatalf("seed %d: budget verdicts diverge: %s %v, heap %v", seed, k.name, dw.exhausted, dh.exhausted)
		}
		if dw.k.Now() != dh.k.Now() {
			t.Fatalf("seed %d: clock diverges: %s %v, heap %v", seed, k.name, dw.k.Now(), dh.k.Now())
		}
		if dw.k.Executed() != dh.k.Executed() {
			t.Fatalf("seed %d: executed diverges: %s %d, heap %d", seed, k.name, dw.k.Executed(), dh.k.Executed())
		}
		if dw.k.Pending() != dh.k.Pending() {
			t.Fatalf("seed %d: pending diverges: %s %d, heap %d", seed, k.name, dw.k.Pending(), dh.k.Pending())
		}
	}
}

func TestDifferentialHeapVsWheel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		diffKernels(t, seed, 400)
	}
}

func TestDifferentialLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	for seed := int64(500); seed <= 505; seed++ {
		diffKernels(t, seed, 5000)
	}
}

// Property: any mix of near and far-future delays fires in nondecreasing
// (time, insertion) order with the overflow heap promoting far events into
// the near wheel exactly when due — checked against both the recorded
// per-event deadline and global ordering.
func TestQuickOverflowPromotion(t *testing.T) {
	prop := func(s *Sim, raw []uint32, farMask uint64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 150 {
			raw = raw[:150]
		}
		type slot struct {
			want  Time
			fired bool
			at    Time
			order int
		}
		scheduled := make([]slot, len(raw))
		var order int
		for i, r := range raw {
			d := Time(r % uint32(20*time.Millisecond))
			if farMask&(1<<uint(i%64)) != 0 {
				// Far future: one to four wheel horizons out, so the event
				// must survive in overflow and be promoted as the window
				// slides forward.
				d += wheelSpan + Time(r%uint32(3*int64(wheelSpan)))
			}
			i := i
			scheduled[i].want = d
			s.Schedule(d, func() {
				scheduled[i].fired = true
				scheduled[i].at = s.Now()
				scheduled[i].order = order
				order++
			})
		}
		s.Run()
		// Every event fired exactly at its deadline, and the global firing
		// order is (time, insertion-sequence).
		prevAt, prevIdx := Time(-1), -1
		byOrder := make([]int, len(raw))
		for i, sl := range scheduled {
			if !sl.fired || sl.at != sl.want {
				return false
			}
			byOrder[sl.order] = i
		}
		for _, i := range byOrder {
			at := scheduled[i].at
			if at < prevAt || (at == prevAt && i < prevIdx) {
				return false
			}
			prevAt, prevIdx = at, i
		}
		return s.Now() == prevAt
	}
	f := func(raw []uint32, farMask uint64) bool {
		return prop(New(11), raw, farMask) && prop(recycled(11), raw, farMask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: chains of far-future events that schedule further far-future
// events keep promoting correctly as the window jumps across long empty
// stretches.
func TestQuickFarChainPromotion(t *testing.T) {
	prop := func(s *Sim, hops uint8, step uint32) bool {
		n := int(hops%12) + 2
		d := wheelSpan/2 + Time(step%uint32(2*int64(wheelSpan)))
		var fired []Time
		var hop func(left int)
		hop = func(left int) {
			fired = append(fired, s.Now())
			if left > 0 {
				s.Schedule(d, func() { hop(left - 1) })
			}
		}
		s.Schedule(d, func() { hop(n) })
		s.Run()
		if len(fired) != n+1 {
			return false
		}
		for i, at := range fired {
			if at != Time(i+1)*d {
				return false
			}
		}
		return true
	}
	f := func(hops uint8, step uint32) bool {
		return prop(New(13), hops, step) && prop(recycled(13), hops, step)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

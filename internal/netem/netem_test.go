package netem

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/recycletest"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

func TestSerializationAndDelay(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 8e6, 30*time.Millisecond, 10) // 1 MB/s
	var arrived sim.Time
	l.Send(Datagram{Size: 1000, Deliver: func() { arrived = s.Now() }})
	s.Run()
	// 1000 B at 1 MB/s = 1 ms serialization + 30 ms delay.
	want := time.Millisecond + 30*time.Millisecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestFIFOOrdering(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 8e6, 0, 100)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.Send(Datagram{Size: 100, Deliver: func() { order = append(order, i) }})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order delivery: %v", order)
		}
	}
}

func TestDropTail(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 8e3, 0, 4) // very slow: 1 kB/s
	delivered := 0
	accepted := 0
	for i := 0; i < 10; i++ {
		if l.Send(Datagram{Size: 1000, Deliver: func() { delivered++ }}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4 (queue capacity)", accepted)
	}
	s.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d, want 4", delivered)
	}
	st := l.Stats()
	if st.Dropped != 6 || st.Sent != 10 || st.Delivered != 4 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestQueueDrainsThenAcceptsMore(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 8e6, 0, 2)
	delivered := 0
	l.Send(Datagram{Size: 1000, Deliver: func() { delivered++ }})
	l.Send(Datagram{Size: 1000, Deliver: func() { delivered++ }})
	if l.Send(Datagram{Size: 1000, Deliver: func() { delivered++ }}) {
		t.Fatal("third packet should be dropped")
	}
	// After the first drains, there is room again.
	s.Schedule(5*time.Millisecond, func() {
		if !l.Send(Datagram{Size: 1000, Deliver: func() { delivered++ }}) {
			t.Error("packet after drain should be accepted")
		}
	})
	s.Run()
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3", delivered)
	}
}

func TestTraceLinkFollowsRate(t *testing.T) {
	s := sim.New(1)
	// 8 Mbps for 1 s, then 0.8 Mbps.
	tr := trace.MustNew("step", []float64{8e6, 0.8e6, 0.8e6, 0.8e6})
	l := NewTraceLink(s, tr, 0, 1000)
	var times []sim.Time
	// Packet served at t=0 (fast), then one served at t≈1.2s (slow).
	l.Send(Datagram{Size: 125000, Deliver: func() { times = append(times, s.Now()) }}) // 1 Mbit → 125 ms at 8 Mbps
	s.Schedule(1100*time.Millisecond, func() {
		l.Send(Datagram{Size: 125000, Deliver: func() { times = append(times, s.Now()) }}) // 1 Mbit → 1.25 s at 0.8 Mbps
	})
	s.Run()
	if len(times) != 2 {
		t.Fatalf("got %d deliveries", len(times))
	}
	if times[0] != 125*time.Millisecond {
		t.Fatalf("fast delivery at %v, want 125ms", times[0])
	}
	want := 1100*time.Millisecond + 1250*time.Millisecond
	if times[1] != want {
		t.Fatalf("slow delivery at %v, want %v", times[1], want)
	}
}

func TestThroughputMatchesLinkRate(t *testing.T) {
	s := sim.New(1)
	const rate = 10e6
	l := NewFixedLink(s, rate, 10*time.Millisecond, 64)
	const pktSize = 1200
	var deliveredBytes int
	// Saturate the link for 10 simulated seconds with a self-clocked sender.
	var send func()
	send = func() {
		if s.Now() > 10*time.Second {
			return
		}
		for l.QueueLen() < 32 {
			l.Send(Datagram{Size: pktSize, Deliver: func() { deliveredBytes += pktSize }})
		}
		s.Schedule(time.Millisecond, send)
	}
	s.Schedule(0, send)
	s.Run()
	got := float64(deliveredBytes) * 8 / 10 // bps over 10 s (approximately)
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("achieved %v bps, want ≈%v", got, rate)
	}
}

func TestNilDeliverIsSafe(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 1e6, 0, 4)
	l.Send(Datagram{Size: 100})
	s.Run()
	if l.Stats().Delivered != 1 {
		t.Fatal("datagram with nil Deliver should still count as delivered")
	}
}

func TestNewFixedPathBDPQueue(t *testing.T) {
	s := sim.New(1)
	p := NewFixedPath(s, 20e6, 1500)
	// BDP = 20e6/8 * 0.06 = 150000 B → 1.25×/1500 = 125 packets.
	if p.Down.capacity != 125 {
		t.Fatalf("queue capacity = %d, want 125", p.Down.capacity)
	}
}

func TestPathDirections(t *testing.T) {
	s := sim.New(1)
	tr := trace.Constant("c", 10e6, 10)
	p := NewPath(s, tr, DefaultQueuePackets)
	gotDown, gotUp := false, false
	p.Down.Send(Datagram{Size: 100, Deliver: func() { gotDown = true }})
	p.Up.Send(Datagram{Size: 100, Deliver: func() { gotUp = true }})
	s.Run()
	if !gotDown || !gotUp {
		t.Fatalf("down=%v up=%v", gotDown, gotUp)
	}
}

// Property: conservation — every offered packet is either delivered or
// dropped, never both, never lost silently.
func TestPropertyConservation(t *testing.T) {
	f := func(sizes []uint16, capRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 100 {
			sizes = sizes[:100]
		}
		s := sim.New(9)
		capacity := int(capRaw%32) + 1
		l := NewFixedLink(s, 1e6, time.Millisecond, capacity)
		delivered := 0
		for _, sz := range sizes {
			l.Send(Datagram{Size: int(sz%1400) + 1, Deliver: func() { delivered++ }})
		}
		s.Run()
		st := l.Stats()
		return st.Sent == uint64(len(sizes)) &&
			st.Delivered+st.Dropped == st.Sent &&
			delivered == int(st.Delivered) &&
			st.MaxQueue <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestSendDeliverZeroAllocs pins the link's steady state at 0 allocations
// per datagram — Send, queueing, service completion, delivery and Done —
// on a bare link and through every canonical impairment chain, with the
// invariant checker off and armed. The queue wraps its ring many times over.
func TestSendDeliverZeroAllocs(t *testing.T) {
	for _, armed := range []bool{false, true} {
		for _, profile := range Profiles() {
			s := sim.New(1)
			if armed {
				s.SetChecker(invariant.New())
			}
			l := NewFixedLink(s, 1e9, time.Millisecond, 64)
			down, _, err := NewProfile(profile)
			if err != nil {
				t.Fatal(err)
			}
			if down != nil {
				l.Impair(down, 1)
			}
			done := 0
			var d Datagram
			d = Datagram{Size: 1200, Deliver: func() {}, Done: func() {
				done++
				l.Send(d) // keep 16 in flight
			}}
			for i := 0; i < 16; i++ {
				l.Send(d)
			}
			s.RunUntil(time.Second) // warm the ring, the delivery records and the kernel's event pool
			before := done
			if allocs := testing.AllocsPerRun(10, func() { s.RunUntil(s.Now() + 100*time.Millisecond) }); allocs != 0 {
				t.Errorf("%s (checker armed: %v): %.1f allocs per 100 ms of traffic, want 0", profile, armed, allocs)
			}
			if done-before < 1000 {
				t.Fatalf("%s (checker armed: %v): only %d datagrams finished in the measured windows", profile, armed, done-before)
			}
			s.Release()
		}
	}
}

// dupEvery duplicates every nth datagram it sees.
type dupEvery struct{ n, seen int }

func (d *dupEvery) Apply(_ sim.Time, _ *rand.Rand, f *Fate) {
	d.seen++
	f.Duplicate = d.seen%d.n == 0
}

// TestDeliveredCopyIsOneEvent: a datagram costs one kernel event to serve
// and one per delivered copy — N datagrams on a clean link execute exactly
// 2N events, and each duplicate adds one. Done runs once per datagram, in the
// event of its final copy, right after that copy's Deliver, and an event
// that Deliver schedules at zero delay runs after Done. Many datagrams are
// in flight at once, each duplicate overlapping later ones, so a delivery
// record handed out twice shows as a copy delivered for the wrong datagram.
func TestDeliveredCopyIsOneEvent(t *testing.T) {
	const n = 200
	for _, every := range []int{0, 3} {
		s := sim.New(1)
		l := NewFixedLink(s, 8e6, 20*time.Millisecond, n) // 1 ms per datagram, 20 in flight
		if every > 0 {
			l.Impair(&dupEvery{n: every}, 1)
		}
		delivered, done := make([]int, n), make([]int, n)
		var followUps int
		for i := 0; i < n; i++ {
			copies := 1
			if every > 0 && (i+1)%every == 0 {
				copies = 2
			}
			var lastEvent uint64
			l.Send(Datagram{Size: 1000,
				Deliver: func() {
					if done[i] > 0 {
						t.Fatalf("datagram %d delivered after its Done", i)
					}
					delivered[i]++
					lastEvent = s.Executed()
					s.Schedule(0, func() {
						followUps++
						if done[i] == 0 {
							t.Fatalf("an event datagram %d's Deliver scheduled at zero delay ran before its Done", i)
						}
					})
				},
				Done: func() {
					done[i]++
					if delivered[i] != copies || s.Executed() != lastEvent {
						t.Fatalf("datagram %d: Done ran after %d of %d copies, in event %d (final copy's %d)", i, delivered[i], copies, s.Executed(), lastEvent)
					}
				},
			})
		}
		s.Run()
		dups := int(l.Stats().Duplicated)
		for i := range done {
			if done[i] != 1 {
				t.Fatalf("every %d: datagram %d ran Done %d times", every, i, done[i])
			}
		}
		if every > 0 && dups != n/every {
			t.Fatalf("every %d: %d duplicates, want %d", every, dups, n/every)
		}
		if got, want := s.Executed(), uint64(2*n+dups+followUps); got != want {
			t.Fatalf("every %d: %d datagrams (%d duplicated, %d follow-up events) executed %d kernel events, want %d", every, n, dups, followUps, got, want)
		}
		s.Release()
	}
}

// TestReleasedKernelPinsNothing: the kernel's delivery records outlive the
// world, so once it ends nothing in them may hold it. Datagrams are cut off
// mid-flight; Release takes back every record, those in flight included,
// each scrubbed — recycletest dirties every field of every record first — and
// neither a Deliver nor a Done callback's capture, nor the link, stays
// reachable through the released kernel.
func TestReleasedKernelPinsNothing(t *testing.T) {
	sim.DropReleased()
	s := sim.New(1)
	var store *sim.Pool[delivery, *delivery]
	gone := make(chan string, 3)
	func() {
		delivered, done, rate := new([16]byte), new([16]byte), new([16]byte)
		runtime.SetFinalizer(delivered, func(*[16]byte) { gone <- "a Deliver callback's capture" })
		runtime.SetFinalizer(done, func(*[16]byte) { gone <- "a Done callback's capture" })
		runtime.SetFinalizer(rate, func(*[16]byte) { gone <- "the link" })
		// The link sits in a cycle (its bound service callback), which
		// finalizers do not see through: watch what its rate func captured.
		l := NewLink(s, func(sim.Time) float64 { rate[0]++; return 8e6 }, 50*time.Millisecond, 64)
		for i := 0; i < 40; i++ {
			l.Send(Datagram{Size: 1000, Deliver: func() { delivered[0]++ }, Done: func() { done[0]++ }})
		}
		s.RunUntil(60 * time.Millisecond) // all forty served, ten delivered
		store = l.store
		if done[0] == 0 || store.Lent() < 30 {
			t.Fatalf("the world is too tidy to prove anything: %d datagrams done, %d of %d records in flight", done[0], store.Lent(), len(store.All()))
		}
		for _, r := range store.All() {
			recycletest.Dirty(&r.flight)
		}
	}()
	s.Release()
	if store.Lent() != 0 {
		t.Fatalf("the released kernel's store has %d of its %d records out", store.Lent(), len(store.All()))
	}
	for _, r := range store.All() {
		recycletest.CheckScrubbed(t, &r.flight)
	}
	left := 3
	for i := 0; i < 50 && left > 0; i++ {
		runtime.GC()
		select {
		case <-gone:
			left--
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(s) // and through it the store, whether or not the free list kept it
	if left > 0 {
		t.Fatalf("%d of the link, a Deliver and a Done callback's capture are still reachable from the released kernel's delivery records", left)
	}
}

// TestFIFOAcrossRingGrowth grows the queue ring while its live window is
// wrapped around the end of the backing array; order must survive.
func TestFIFOAcrossRingGrowth(t *testing.T) {
	s := sim.New(1)
	l := NewFixedLink(s, 8e6, 0, 100) // 1 ms per 1000 B datagram
	var order []int
	next := 0
	send := func(n int) {
		for i := 0; i < n; i++ {
			k := next
			next++
			l.Send(Datagram{Size: 1000, Deliver: func() { order = append(order, k) }})
		}
	}
	send(8)
	s.RunUntil(5500 * time.Microsecond) // five delivered, head advanced
	send(7)                             // wraps the 8-slot ring
	send(30)                            // grows it mid-wrap, twice
	s.Run()
	if len(order) != next {
		t.Fatalf("delivered %d of %d", len(order), next)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order delivery: %v", order)
		}
	}
}

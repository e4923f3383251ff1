// Package netem emulates the paper's three-machine testbed topology in the
// discrete-event simulator: a server and a client connected through a
// router whose egress is the bottleneck. The router shapes traffic to a
// bandwidth trace (as the testbed does with tc), applies a drop-tail queue
// of a configurable packet capacity (32 packets for the trace experiments,
// 750 for the long-queue appendix, 1.25×BDP for fixed-rate runs), and adds
// a 30 ms "last mile" propagation delay toward the client.
package netem

import (
	"math/rand"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// Datagram is one packet on the wire. Size is the on-wire size in bytes and
// governs serialization time and queue occupancy. Deliver runs at the
// receiver when (and if) the packet arrives; dropped packets are silently
// discarded, as on a real drop-tail queue.
//
// Done, when set, runs exactly once when the link is finished with the
// datagram: in the same kernel event as the final delivery, right after its
// Deliver (impairments may duplicate a packet), or at the instant an
// impairment drops it on the wire. Anything Deliver schedules, even at zero
// delay, runs after Done. Senders that pool their packet records reclaim
// them in Done, never in Deliver. Done is NOT called when Send itself
// returns false: the datagram never entered the link, so the caller still
// owns it.
type Datagram struct {
	Size    int
	Deliver func()
	Done    func()
}

// LinkStats counts what happened on a link.
type LinkStats struct {
	Sent          uint64 // datagrams offered to the link
	Dropped       uint64 // datagrams dropped at the queue
	Delivered     uint64 // datagrams handed to receivers
	ImpairedDrops uint64 // datagrams dropped on the wire by an impairment
	Duplicated    uint64 // extra copies delivered by an impairment
	BytesSent     uint64 // bytes serialized onto the wire
	MaxQueue      int    // high-water mark of the queue, in packets
	BusyTime      sim.Time
	QueueDelay    sim.Time // cumulative time datagrams spent queued
}

// Link is a unidirectional link: a drop-tail queue drained at a
// (possibly time-varying) rate, followed by a fixed propagation delay.
type Link struct {
	sim      *sim.Sim
	rate     func(sim.Time) float64 // bits per second
	delay    sim.Time
	capacity int // max datagrams queued or in service

	imp  Impairment
	rng  *rand.Rand
	fate Fate // Apply's scratch: a local would escape through the interface call

	store *sim.Pool[delivery, *delivery] // the kernel's delivery records

	// Waiting datagrams are a ring, ring[(head+i) % len(ring)] for i < count;
	// cur is the one in service. Only one ever is, so its completion
	// callback (served) is bound once per link, not closed over per datagram.
	ring        []queued
	head, count int
	cur         Datagram
	served      func()
	serving     bool
	stats       LinkStats
}

type queued struct {
	d        Datagram
	enqueued sim.Time
}

// delivery is one datagram past the serializer, on its way to the receiver
// (DESIGN.md §5): the kernel event of each copy runs arrive, bound to the
// record the first time it is used, so a delivered datagram costs no
// closure and no event beyond its copies. Records come from the kernel's
// pool, shared by its links; a world can end with some in flight, and the
// pool takes those back too.
type delivery struct {
	arrive func()
	sim    *sim.Sim // the kernel that owns the pool: a stored record still reaches its checker
	flight          // zero while the record is stored
}

// flight is what a link lends a delivery record for one datagram.
type flight struct {
	link   *Link
	d      Datagram
	copies uint8 // arrivals still due: 1, or 2 for a duplicated datagram
}

var deliveries sim.Local[sim.Pool[delivery, *delivery]]

// Scrub empties a record for the pool: a stored record holds no datagram
// and no link, so it pins nothing of a world.
func (r *delivery) Scrub() { r.flight = flight{} }

// onArrive hands one copy to the receiver. The final copy also ends the
// datagram: Done runs in this event, right after Deliver — where a separate
// event at the same instant with the next sequence number would have run it,
// since nothing can order between the two — and the record goes back to the
// store. A copy that finds none due comes after the final one, whose Done
// has run: that is netem.done-exactly-once, and the copy is dropped.
func (r *delivery) onArrive() {
	if r.copies == 0 {
		r.sim.Checker().Failf(invariant.NetemDoneExactlyOnce,
			"a copy arrived after the datagram's final copy ran Done")
		return
	}
	l, d := r.link, r.d
	r.copies--
	if d.Deliver != nil {
		d.Deliver()
	}
	if r.copies > 0 {
		return
	}
	if d.Done != nil {
		d.Done()
	}
	l.store.Put(r)
}

// NewLink builds a link draining at rate(t) bps with the given one-way
// propagation delay and drop-tail queue capacity in packets.
func NewLink(s *sim.Sim, rate func(sim.Time) float64, delay sim.Time, queuePackets int) *Link {
	if queuePackets < 1 {
		queuePackets = 1
	}
	l := &Link{sim: s, rate: rate, delay: delay, capacity: queuePackets, store: deliveries.Get(s)}
	l.served = l.onServed
	return l
}

// NewTraceLink builds a link whose rate follows tr.
func NewTraceLink(s *sim.Sim, tr *trace.Trace, delay sim.Time, queuePackets int) *Link {
	return NewLink(s, tr.RateAt, delay, queuePackets)
}

// NewFixedLink builds a link with a constant rate in bps.
func NewFixedLink(s *sim.Sim, bps float64, delay sim.Time, queuePackets int) *Link {
	return NewLink(s, func(sim.Time) float64 { return bps }, delay, queuePackets)
}

// Impair attaches an impairment chain to the link, with its own RNG seeded
// by seed so the fault schedule is independent of everything else in the
// simulation (and reproducible: same seed, same schedule). Passing nil
// removes impairments; the link is then exactly its unimpaired self.
func (l *Link) Impair(imp Impairment, seed int64) {
	l.imp = imp
	if imp != nil {
		l.rng = rand.New(rand.NewSource(seed))
	} else {
		l.rng = nil
	}
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of datagrams queued or in service.
func (l *Link) QueueLen() int {
	n := l.count
	if l.serving {
		n++
	}
	return n
}

// Send offers a datagram to the link. It returns false (and drops the
// datagram) when the drop-tail queue is full.
func (l *Link) Send(d Datagram) bool {
	l.stats.Sent++
	if l.QueueLen() >= l.capacity {
		l.stats.Dropped++
		return false
	}
	if l.count == len(l.ring) {
		l.growRing()
	}
	l.ring[(l.head+l.count)%len(l.ring)] = queued{d: d, enqueued: l.sim.Now()}
	l.count++
	if n := l.QueueLen(); n > l.stats.MaxQueue {
		l.stats.MaxQueue = n
	}
	if !l.serving {
		l.serveNext()
	}
	return true
}

// growRing doubles the ring, unrolling the live window to the front.
func (l *Link) growRing() {
	grown := make([]queued, 2*len(l.ring)+8)
	for i := 0; i < l.count; i++ {
		grown[i] = l.ring[(l.head+i)%len(l.ring)]
	}
	l.ring, l.head = grown, 0
}

// serveNext puts the head of the queue on the wire: it charges the
// serialization time and schedules onServed for when the last bit leaves.
func (l *Link) serveNext() {
	if l.count == 0 {
		l.serving = false
		return
	}
	q := l.ring[l.head]
	l.ring[l.head] = queued{}
	l.head = (l.head + 1) % len(l.ring)
	l.count--
	l.serving = true
	l.stats.QueueDelay += l.sim.Now() - q.enqueued

	rate := l.rate(l.sim.Now())
	if rate < 1 {
		rate = 1
	}
	serialization := sim.Time(float64(q.d.Size*8) / rate * float64(time.Second))
	if serialization < time.Nanosecond {
		serialization = time.Nanosecond
	}
	l.stats.BusyTime += serialization
	l.stats.BytesSent += uint64(q.d.Size)

	l.cur = q.d
	l.sim.Schedule(serialization, l.served)
}

// onServed runs when the datagram in service has left the serializer: the
// impairment chain decides its fate and the next datagram enters service.
func (l *Link) onServed() {
	d := l.cur
	l.cur = Datagram{}
	f := &l.fate
	*f = Fate{}
	if l.imp != nil {
		l.imp.Apply(l.sim.Now(), l.rng, f)
	}
	if f.Drop {
		l.stats.ImpairedDrops++
		if d.Done != nil {
			d.Done()
		}
		l.serveNext()
		return
	}
	l.stats.Delivered++
	if d.Deliver != nil || d.Done != nil {
		// One event per copy; the final one also runs Done, so the
		// receiver always sees the packet before the sender reclaims it.
		r := l.store.Get()
		if r.arrive == nil {
			r.arrive, r.sim = r.onArrive, l.sim
		}
		r.flight = flight{link: l, d: d, copies: 1}
		if d.Deliver != nil && f.Duplicate {
			l.stats.Duplicated++
			r.copies = 2
		}
		delay := l.delay + f.ExtraDelay
		for range r.copies {
			l.sim.Schedule(delay, r.arrive)
		}
	}
	if chk := l.sim.Checker(); chk.Enabled() {
		// Conservation at service completion: every datagram ever
		// offered is exactly one of queue-dropped, impairment-dropped,
		// delivered (this one included), or still queued behind us.
		st := &l.stats
		if accounted := st.Dropped + st.ImpairedDrops + st.Delivered +
			uint64(l.count); st.Sent != accounted {
			chk.Failf(invariant.NetemDatagramConservation,
				"sent %d != dropped %d + impaired %d + delivered %d + queued %d",
				st.Sent, st.Dropped, st.ImpairedDrops, st.Delivered, l.count)
		}
	}
	l.serveNext()
}

// Path is the duplex server↔client path through the router. Down carries
// server→client traffic (the shaped bottleneck); Up carries client→server
// traffic (requests and ACKs) and is provisioned generously, as in the
// testbed where only the router egress is shaped.
type Path struct {
	Down *Link
	Up   *Link
}

// DefaultLastMileDelay is the one-way router-to-client delay from §5.
const DefaultLastMileDelay = 30 * time.Millisecond

// DefaultQueuePackets is the router queue used for the trace experiments.
const DefaultQueuePackets = 32

// LongQueuePackets is the 750-packet queue from Appendix B.
const LongQueuePackets = 750

// uplinkRate provisions the reverse path so ACK/request traffic never
// bottlenecks.
const uplinkRate = 100e6

// NewPath builds the standard experiment topology: a trace-shaped downlink
// with the given queue capacity and a fast uplink, both with the last-mile
// propagation delay (RTT ≈ 60 ms plus queueing).
func NewPath(s *sim.Sim, tr *trace.Trace, queuePackets int) *Path {
	return &Path{
		Down: NewTraceLink(s, tr, DefaultLastMileDelay, queuePackets),
		Up:   NewFixedLink(s, uplinkRate, DefaultLastMileDelay, 1024),
	}
}

// NewFixedPath builds a topology with a constant-rate downlink, with queue
// capacity 1.25×BDP (in packets of mtu bytes) as §5 specifies for
// fixed-bandwidth runs.
func NewFixedPath(s *sim.Sim, bps float64, mtu int) *Path {
	bdpBytes := bps / 8 * (2 * DefaultLastMileDelay.Seconds())
	pkts := int(1.25 * bdpBytes / float64(mtu))
	if pkts < 4 {
		pkts = 4
	}
	return &Path{
		Down: NewFixedLink(s, bps, DefaultLastMileDelay, pkts),
		Up:   NewFixedLink(s, uplinkRate, DefaultLastMileDelay, 1024),
	}
}

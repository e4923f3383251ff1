package quic

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"voxel/internal/sim"
)

// fillWindow pushes k synthetic ack-eliciting packets into c's in-flight
// queue starting at the next unused packet number, and returns the next pn.
func fillWindow(c *Conn, s *sim.Sim, start uint64, k int) uint64 {
	for i := 0; i < k; i++ {
		sp := c.store.sent.Get()
		sp.pn = start
		sp.size = 1252
		sp.sentAt = s.Now()
		sp.ackEliciting = true
		c.sentQ.push(sp)
		c.lastAckElic = s.Now()
		start++
	}
	return start
}

// inflightPNs snapshots the queue's packet numbers in order.
func inflightPNs(c *Conn) []uint64 {
	var pns []uint64
	q := &c.sentQ
	for i := q.head; i < len(q.items); i++ {
		pns = append(pns, q.items[i].pn)
	}
	return pns
}

func TestOnAckOutOfOrderRangesKeepsQueueOrdered(t *testing.T) {
	s := sim.New(1)
	c := benchSender(s)
	fillWindow(c, s, 0, 10)
	// Ack {3,4} and {0,1} (descending largest-first, as buildAck emits);
	// largest stays close enough that no packet crosses the loss threshold.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 3, Last: 4}, {First: 0, Last: 1}}})
	want := []uint64{2, 5, 6, 7, 8, 9}
	got := inflightPNs(c)
	if len(got) != len(want) {
		t.Fatalf("in flight = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("in flight = %v, want %v (queue must stay ascending)", got, want)
		}
	}
	if c.stats.PacketsDeclLost != 0 {
		t.Fatalf("declared %d lost, want 0", c.stats.PacketsDeclLost)
	}
	// Close the gap: everything but the tail is gone.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 0, Last: 7}}})
	got = inflightPNs(c)
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("in flight after gap close = %v, want [8 9]", got)
	}
}

func TestOnAckThenThresholdLoss(t *testing.T) {
	s := sim.New(2)
	c := benchSender(s)
	fillWindow(c, s, 0, 6)
	// Ack only the newest: 0..2 sit ≥3 behind and are declared lost; 3 and 4
	// survive inside the packet threshold.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 5, Last: 5}}})
	if c.stats.PacketsDeclLost != 3 {
		t.Fatalf("declared %d lost, want 3", c.stats.PacketsDeclLost)
	}
	got := inflightPNs(c)
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("in flight = %v, want [3 4]", got)
	}
}

func TestPTORequeuesInPacketOrder(t *testing.T) {
	s := sim.New(3)
	c := benchSender(s)
	// Give each packet a reliable stream frame so the requeue order is
	// observable in the retransmission queue.
	for pn := uint64(0); pn < 5; pn++ {
		sp := c.store.sent.Get()
		sp.pn = pn
		sp.size = 1252
		sp.sentAt = s.Now()
		sp.ackEliciting = true
		f := c.store.frames.Get()
		f.StreamID = 1
		f.Offset = pn * 1000
		f.Data = make([]byte, 1000)
		sp.streamFrames = append(sp.streamFrames, f)
		c.sentQ.push(sp)
		c.lastAckElic = s.Now()
	}
	c.ptoCount = 2
	c.onPTO() // third PTO: persistent congestion drains everything in order
	// trySend repacks some requeued frames into fresh packets immediately
	// (the collapsed window limits how many); packetized frames followed by
	// the still-queued remainder must preserve the original stream order.
	type cut struct{ off, n uint64 }
	var cuts []cut
	q := &c.sentQ
	for i := q.head; i < len(q.items); i++ {
		for _, f := range q.items[i].streamFrames {
			cuts = append(cuts, cut{f.Offset, uint64(len(f.Data))})
		}
	}
	for _, f := range c.retransmit.live() {
		cuts = append(cuts, cut{f.Offset, uint64(len(f.Data))})
	}
	// Frames may have been re-split to fit packets, but together they must
	// cover [0, 5000) contiguously and in order.
	var nextOff uint64
	for _, ct := range cuts {
		if ct.off != nextOff {
			t.Fatalf("cuts = %v: requeue must follow packet order", cuts)
		}
		nextOff += ct.n
	}
	if nextOff != 5000 {
		t.Fatalf("recovered %d bytes, want 5000 (cuts %v)", nextOff, cuts)
	}
	if c.ptoCount != 0 {
		t.Fatalf("ptoCount = %d after persistent congestion, want 0", c.ptoCount)
	}
}

func TestRTTSampledOncePerAck(t *testing.T) {
	s := sim.New(4)
	c := benchSender(s) // warmed with one sample
	base := c.rtt.Samples()

	next := fillWindow(c, s, 0, 5)
	s.RunUntil(s.Now() + time.Millisecond) // a sample of 0 would be discarded
	// One ACK covering five packets: exactly one sample.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 0, Last: 4}}})
	if got := c.rtt.Samples(); got != base+1 {
		t.Fatalf("samples = %d after 5-packet ACK, want %d", got, base+1)
	}
	// Duplicate ACK acking nothing new: no sample.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 0, Last: 4}}})
	if got := c.rtt.Samples(); got != base+1 {
		t.Fatalf("samples = %d after duplicate ACK, want %d", got, base+1)
	}

	// Out-of-order ranges whose largest is newly acked: one sample.
	next = fillWindow(c, s, next, 5) // pns 5..9
	s.RunUntil(s.Now() + time.Millisecond)
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 8, Last: 9}, {First: 5, Last: 5}}})
	if got := c.rtt.Samples(); got != base+2 {
		t.Fatalf("samples = %d after out-of-order ACK, want %d", got, base+2)
	}

	// ACK that newly acks packets but NOT the largest (9 was acked above):
	// no sample, per the once-per-largest rule.
	c.onAck(&AckFrame{Ranges: []AckRange{{First: 6, Last: 9}}})
	if got := c.rtt.Samples(); got != base+2 {
		t.Fatalf("samples = %d when largest was already acked, want %d", got, base+2)
	}
	_ = next
}

func TestSentQueueShrinkCompacts(t *testing.T) {
	var q fifo[*sentPacket]
	for i := uint64(0); i < 100; i++ {
		q.push(&sentPacket{pn: i})
	}
	q.dropPrefix(70) // head dominates: must compact
	if q.head != 0 {
		t.Fatalf("head = %d after compaction, want 0", q.head)
	}
	if q.len() != 30 || (*q.front()).pn != 70 {
		t.Fatalf("size = %d front = %v, want 30 / pn 70", q.len(), *q.front())
	}
	q.dropPrefix(30)
	if q.len() != 0 || q.head != 0 || len(q.items) != 0 {
		t.Fatalf("queue not reset when emptied: head=%d len=%d", q.head, len(q.items))
	}
}

// TestAckPathAllocFree pins the zero-allocation property of the steady-state
// ACK path: processing an ACK that retires packets and refilling the window
// from the freelists must not allocate.
func TestAckPathAllocFree(t *testing.T) {
	s := sim.New(5)
	c := benchSender(s)
	next := fillWindow(c, s, 0, 64)
	acked := uint64(0)
	// Warm the freelists and scratch.
	for i := 0; i < 64; i++ {
		acked += 2
		c.onAck(&AckFrame{Ranges: []AckRange{{First: 0, Last: acked - 1}}})
		next = fillWindow(c, s, next, 2)
	}
	ack := &AckFrame{Ranges: []AckRange{{First: 0, Last: 0}}}
	allocs := testing.AllocsPerRun(200, func() {
		acked += 2
		ack.Ranges[0] = AckRange{First: 0, Last: acked - 1}
		c.onAck(ack)
		next = fillWindow(c, s, next, 2)
	})
	if allocs > 0.5 {
		t.Fatalf("ACK path allocates %.1f allocs/op, want 0", allocs)
	}
	_ = time.Millisecond
}

// TestOnAckAcksExactlyTheCoveredPackets checks onAck's range walk — which
// starts at the lowest range that can cover the oldest packet in flight,
// found from the top — against brute force: for random windows and random
// multi-range ACKs (long stale histories below the window, ranges ending
// exactly on the oldest packet, gaps inside the window), the packets it
// acknowledges are exactly those some range contains.
func TestOnAckAcksExactlyTheCoveredPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 2000; round++ {
		s := sim.New(1)
		c := benchSender(s)
		base := uint64(40 + rng.Intn(200))
		fillWindow(c, s, base, 1+rng.Intn(40))
		// Ascending ranges from a random start, then reversed: largest first.
		var ranges []AckRange
		for pn := uint64(rng.Intn(int(base))); len(ranges) < 1+rng.Intn(40) && pn < base+45; {
			last := pn + uint64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				last = base // end exactly on the oldest packet in flight
			}
			if last >= pn {
				ranges = append(ranges, AckRange{First: pn, Last: last})
				pn = last
			}
			pn += 2 + uint64(rng.Intn(6))
		}
		slices.Reverse(ranges)
		covered := func(pn uint64) bool {
			return slices.ContainsFunc(ranges, func(r AckRange) bool { return r.First <= pn && pn <= r.Last })
		}
		want := uint64(0)
		for _, pn := range inflightPNs(c) {
			if covered(pn) {
				want++
			}
		}
		c.onAck(&AckFrame{Ranges: ranges})
		if c.ackedPkts != want {
			t.Fatalf("round %d: acked %d packets, ranges %v cover %d of the window from %d", round, c.ackedPkts, ranges, want, base)
		}
		for _, pn := range inflightPNs(c) {
			if covered(pn) {
				t.Fatalf("round %d: packet %d still in flight though ranges %v cover it", round, pn, ranges)
			}
		}
	}
}

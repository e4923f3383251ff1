package quic

import (
	"fmt"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/sim"
	"voxel/internal/trace"
)

// benchSender returns a server-side Conn (the data sender in the experiment
// topology) with a warmed RTT estimate, without running any traffic.
func benchSender(s *sim.Sim) *Conn {
	tr := trace.Constant("bench", 50e6, 3600)
	path := netem.NewPath(s, tr, 64)
	_, server := NewPair(s, path, Config{}, Config{})
	server.rtt.OnSample(60 * time.Millisecond)
	return server
}

// benchTrack registers sp as in flight, mirroring what sendOnePacket does.
func benchTrack(c *Conn, sp *sentPacket) {
	c.sentQ.push(sp)
}

// BenchmarkOnAckSlidingWindow models the steady state of a bulk transfer:
// a ~512-packet window where each arriving ACK acknowledges the two oldest
// packets while two new packets enter flight. This is the exact shape that
// made the map-based onAck O(window) per ACK. ranges=1 is a clean path (the
// receiver reports its whole history as one range); ranges=32 is what every
// ACK looks like once the path has lost 31 packets: 31 stale ranges below
// the window, which the range walk must not step through per ACK.
func BenchmarkOnAckSlidingWindow(b *testing.B) {
	for _, ranges := range []int{1, 32} {
		b.Run(fmt.Sprintf("ranges=%d", ranges), func(b *testing.B) {
			s := sim.New(1)
			c := benchSender(s)
			const window = 512
			base := uint64(2 * ranges)
			next := fillWindow(c, s, base, window)
			ack := &AckFrame{Ranges: []AckRange{{First: base}}}
			for pn := base - 2; len(ack.Ranges) < ranges; pn -= 2 {
				ack.Ranges = append(ack.Ranges, AckRange{First: pn, Last: pn})
			}
			acked := base
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acked += 2
				ack.Ranges[0].Last = acked - 1
				c.onAck(ack)
				next = fillWindow(c, s, next, 2)
			}
		})
	}
}

// BenchmarkAckRoundTrip32 is the ACK round trip as the macro workloads run
// it: per operation the receiver takes in packets and snapshots its history
// into a packet record, and the sender — 64 packets in flight — receives and
// processes it. steady: a 32-range history whose top range grows. newgap:
// every ACK opens a gap, so every ACK shifts the 32-range window and the
// sender declares a loss. onerange: a clean path's one-range ACKs.
func BenchmarkAckRoundTrip32(b *testing.B) {
	for _, mode := range []string{"steady", "newgap", "onerange"} {
		b.Run(mode, func(b *testing.B) {
			s := sim.New(1)
			snd := benchSender(s)
			rcv := Conn{store: &packetStore{}} // only its ACK history and snapshot are used
			base := uint64(100)
			if mode != "onerange" {
				for pn := uint64(0); pn < 62; pn += 2 {
					rcv.recordArrival(pn) // 31 old gaps
				}
			} else {
				for pn := uint64(0); pn < base; pn++ {
					rcv.recordArrival(pn)
				}
			}
			next := fillWindow(snd, s, base, 64)
			arrived := base // the sender's packets below it have reached the receiver, gaps aside
			tx := &txRecord{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := 2
				if mode == "newgap" {
					arrived++ // lost: a new gap, which the sender declares lost three packets later
					fresh = 3
				}
				rcv.recordArrival(arrived)
				rcv.recordArrival(arrived + 1)
				arrived += 2
				tx.pn = uint64(i)
				rcv.buildAck(&tx.ack)
				snd.receive(tx)
				next = fillWindow(snd, s, next, fresh)
			}
			b.StopTimer()
			if got, want := len(rcv.recvdPNs.Ranges()), map[string]int{"steady": 32, "onerange": 1}[mode]; mode != "newgap" && got != want {
				b.Fatalf("receiver history has %d ranges, want %d", got, want)
			}
			if snd.sentQ.len() > 68 || snd.ackedPkts < uint64(2*b.N) {
				b.Fatalf("sender acked %d packets in %d ACKs and has %d in flight", snd.ackedPkts, b.N, snd.sentQ.len())
			}
		})
	}
}

// BenchmarkOnAckReordered acknowledges with a gapped two-range ACK so the
// newly-acked set is not a pure prefix of the in-flight window.
func BenchmarkOnAckReordered(b *testing.B) {
	s := sim.New(2)
	c := benchSender(s)
	const window = 256
	next := uint64(0)
	fill := func(k int) {
		for i := 0; i < k; i++ {
			sp := c.store.sent.Get()
			sp.pn, sp.size, sp.sentAt, sp.ackEliciting = next, 1252, s.Now(), true
			benchTrack(c, sp)
			c.lastAckElic = s.Now()
			next++
		}
	}
	fill(window)
	acked := uint64(0)
	ack := &AckFrame{Ranges: []AckRange{{}, {}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ack [acked+1, acked+2] but leave packet `acked` outstanding, then
		// close the gap on the next iteration.
		ack.Ranges[0] = AckRange{First: acked + 1, Last: acked + 2}
		ack.Ranges[1] = AckRange{First: 0, Last: acked}
		c.onAck(ack)
		acked += 3
		fill(3)
	}
}

// BenchmarkDetectLossPath exercises the loss-declaration walk: a window
// where the packet threshold declares the three oldest packets lost on
// every ACK of the frontier.
func BenchmarkDetectLossPath(b *testing.B) {
	s := sim.New(3)
	c := benchSender(s)
	const window = 256
	next := uint64(0)
	fill := func(k int) {
		for i := 0; i < k; i++ {
			sp := c.store.sent.Get()
			sp.pn, sp.size, sp.sentAt, sp.ackEliciting = next, 1252, s.Now(), true
			benchTrack(c, sp)
			c.lastAckElic = s.Now()
			next++
		}
	}
	fill(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ack only the newest packet: everything ≥3 behind it is declared
		// lost by packet threshold and requeued.
		ack := &AckFrame{Ranges: []AckRange{{First: next - 1, Last: next - 1}}}
		c.onAck(ack)
		// Drain the requeued retransmissions so queues stay bounded.
		c.retransmit.items = c.retransmit.items[:0]
		c.ctrlQ.items = c.ctrlQ.items[:0]
		fill(window - sentCount(c))
	}
}

// sentCount reports the number of packets tracked in flight.
func sentCount(c *Conn) int {
	return c.sentQ.len()
}

// BenchmarkPacketEncodeScratch measures encoding a full-size data packet
// into a reused buffer.
func BenchmarkPacketEncodeScratch(b *testing.B) {
	pkt := &Packet{
		Number: 1 << 20,
		Frames: []Frame{
			&AckFrame{Ranges: []AckRange{{100, 200}, {10, 50}}},
			&StreamFrame{StreamID: 4, Offset: 1 << 20, Data: make([]byte, 1100)},
		},
	}
	buf := make([]byte, 0, pkt.WireSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendTo(buf[:0])
	}
	_ = buf
}

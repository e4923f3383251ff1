package quic

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
)

// fixedWindow is a congestion controller with a constant window: with it a
// transfer reaches a loss-free steady state (in-flight count, pools and
// queues stop growing), which is what the allocation pin needs.
type fixedWindow struct{ window, inflight int }

func (f *fixedWindow) OnPacketSent(_ sim.Time, n int)      { f.inflight += n }
func (f *fixedWindow) OnAck(_ sim.Time, n int, _ sim.Time) { f.inflight -= n }
func (f *fixedWindow) OnLoss(_ sim.Time, n int, _ bool)    { f.inflight -= n }
func (f *fixedWindow) OnRetransmissionTimeout(sim.Time)    {}
func (f *fixedWindow) Window() int                         { return f.window }
func (f *fixedWindow) InFlight() int                       { return f.inflight }
func (f *fixedWindow) CanSend(n int) bool                  { return f.inflight+n <= f.window }

// TestPacketPathZeroAllocs pins the whole per-packet path at 0 allocations
// in steady state for a content-free body: Stream.nextFrame → sendOnePacket
// → Link.Send → service completion → Conn.receive → handleData → OnData,
// and the ACKs flowing back — with telemetry off and on, over a clean
// history (one-range ACKs) and after a lossy warm-up that leaves the
// receiver a history of more than 32 ranges (full-size ACK snapshots).
func TestPacketPathZeroAllocs(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		for _, telemetry := range []bool{false, true} {
			s := sim.New(1)
			var sc *obs.Scope
			if telemetry {
				sc = obs.NewScope(func() time.Duration { return time.Duration(s.Now()) }, obs.Options{})
			}
			path := netem.NewFixedPath(s, 100e6, 1200)
			cfg := Config{InitialMaxData: 1 << 40, Obs: sc}
			srvCfg := cfg
			srvCfg.Controller = &fixedWindow{window: 64 * 1252}
			client, server := NewPair(s, path, cfg, srvCfg)
			var got, elided uint64
			client.OnStream(func(st *Stream) {
				st.OnData(func(_, n uint64, data []byte) {
					got += n
					if data == nil {
						elided += n
					}
				})
			})
			st := server.OpenStream(true)
			st.WriteZeros(1 << 30)
			if lossy {
				path.Down.Impair(netem.IIDLoss{P: 0.03}, 3)
				s.RunUntil(2 * time.Second)
				path.Down.Impair(nil, 0)
			}
			s.RunUntil(10 * time.Second) // warm pools, scratch and (slowest) the event kernel's buckets
			before, lostBefore := got, server.Stats().PacketsDeclLost
			allocs := testing.AllocsPerRun(10, func() { s.RunUntil(s.Now() + 200*time.Millisecond) })
			if allocs != 0 {
				t.Errorf("lossy=%v telemetry=%v: %.1f allocs per 200 ms of steady-state transfer, want 0", lossy, telemetry, allocs)
			}
			if moved := got - before; moved < 1<<20 || elided != got {
				t.Fatalf("lossy=%v telemetry=%v: moved %d B in the measured windows (%d of %d B elided)", lossy, telemetry, moved, elided, got)
			}
			if lost := server.Stats().PacketsDeclLost; lost != lostBefore || lossy != (lost > 0) {
				t.Fatalf("lossy=%v telemetry=%v: %d packets lost, %d of them while measuring; the pin needs a loss-free steady state", lossy, telemetry, lost, lost-lostBefore)
			}
			if n := len(client.recvdPNs.Ranges()); lossy != (n > 32) {
				t.Fatalf("lossy=%v telemetry=%v: receiver history has %d ranges", lossy, telemetry, n)
			}
		}
	}
}

// TestCleanTransferEventsPerPacket pins the kernel events one fixed clean
// transfer executes: 4 MiB over a 20 Mbit/s path with a 32-packet window,
// no queue or wire loss, 7,092 packets both ways. Each packet costs one
// event to leave the link's serializer and one to arrive, which also hands
// the packet record back; with the record handed back in an event of its
// own the same transfer took 24,821 events, 3.50 per packet. An event added
// per packet, or per ACK, moves the count.
func TestCleanTransferEventsPerPacket(t *testing.T) {
	s := sim.New(1)
	path := netem.NewFixedPath(s, 20e6, 1200)
	client, server := NewPair(s, path, Config{}, Config{Controller: &fixedWindow{window: 32 * 1252}})
	fin := false
	client.OnStream(func(st *Stream) { st.OnFin(func(uint64) { fin = true }) })
	st := server.OpenStream(false)
	st.WriteZeros(4 << 20)
	st.CloseWrite()
	s.RunUntil(30 * time.Second)
	packets := client.Stats().PacketsSent + server.Stats().PacketsSent
	if down := path.Down.Stats(); !fin || down.Dropped != 0 || packets != 7092 {
		t.Fatalf("transfer done: %v; %d packets sent, %d dropped at the queue; want 7,092 packets, none dropped", fin, packets, down.Dropped)
	}
	if events := s.Executed(); events != 17729 {
		t.Fatalf("the transfer executed %d kernel events (%.3f per packet), want 17,729 (2.500 per packet)", events, float64(events)/float64(packets))
	}
}

// TestElidedFrameRoundTrip: decode(encode(f)) == f for elided frames, and a
// packet's wire size is its encoded length plus the payload left out.
func TestElidedFrameRoundTrip(t *testing.T) {
	f := func(id, off uint32, n uint16, real []byte, fin, unrel bool) bool {
		el := &StreamFrame{StreamID: uint64(id), Offset: uint64(off), Elided: int(n)%maxElided + 1, Fin: fin, Unreliable: unrel}
		pkt := &Packet{Number: uint64(off), Frames: []Frame{
			&AckFrame{Ranges: []AckRange{{First: 3, Last: 9}}},
			el,
			&StreamFrame{StreamID: uint64(id) + 2, Offset: 7, Data: real},
			&LossReportFrame{StreamID: 1, Offset: uint64(n), Length: 5},
		}}
		enc := pkt.Encode()
		if pkt.WireSize() != len(enc)+el.Elided || !sizesAgree(pkt) {
			return false
		}
		dec, err := DecodePacket(enc)
		if err != nil || len(dec.Frames) != 4 || dec.WireSize() != pkt.WireSize() {
			return false
		}
		got := dec.Frames[2].(*StreamFrame)
		return reflect.DeepEqual(dec.Frames[1], el) && got.Elided == 0 && bytes.Equal(got.Data, real)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsBadElided: the elided bit on a truncated header, with a
// zero length, or claiming more than a datagram can carry is malformed, also
// behind valid frames; a well-formed elided frame decodes to what a
// connection delivers as that many content-free bytes.
func TestDecodeRejectsBadElided(t *testing.T) {
	el := byte(frameTypeUStream | elidedBit)
	cases := [][]byte{
		{packetHeaderByte, 0, el},                         // header cut after the type
		{packetHeaderByte, 0, el, 4},                      // ... after the stream ID
		{packetHeaderByte, 0, el, 4, 0},                   // ... after the offset
		{packetHeaderByte, 0, el, 4, 0, 0x40},             // ... inside the length varint
		{packetHeaderByte, 0, el, 4, 0, 0},                // elided, but nothing elided
		{packetHeaderByte, 0, el, 4, 0, 0x80, 1, 0, 0},    // 65536 > maxElided
		{packetHeaderByte, 0, frameTypePing, el, 4, 0, 0}, // valid frame first
	}
	ack32 := &AckFrame{}
	for pn := uint64(64); pn > 0; pn -= 2 {
		ack32.Ranges = append(ack32.Ranges, AckRange{First: pn, Last: pn})
	}
	cases = append(cases, append((&Packet{Frames: []Frame{ack32}}).Encode(), el, 4, 0, 0)) // valid full-size ACK first
	for i, b := range cases {
		if _, err := DecodePacket(b); err == nil {
			t.Errorf("case %d: malformed elided frame decoded without error", i)
		}
	}
	s := sim.New(1)
	_, c := NewPair(s, netem.NewFixedPath(s, 10e6, 1200), Config{}, Config{})
	ok, err := DecodePacket((&Packet{Number: 1, Frames: []Frame{&StreamFrame{StreamID: 4, Elided: 900, Unreliable: true}}}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	c.receive(recordOf(ok))
	if st := c.Stats(); st.PacketsReceived != 1 || c.streams[4].Received().CoveredBytes() != 900 {
		t.Fatalf("well-formed elided packet not delivered: %+v", st)
	}
}

// FuzzDecodePacket feeds arbitrary bytes to the one frame decoder: it must
// never panic, and whatever it accepts must survive a canonical re-encode
// unchanged, every frame kind occupying exactly its wireSize() — encoded
// length plus elided payload — and the packet its WireSize().
func FuzzDecodePacket(f *testing.F) {
	f.Add((&Packet{Number: 9, Frames: []Frame{
		&AckFrame{Ranges: []AckRange{{First: 1, Last: 4}}},
		&StreamFrame{StreamID: 1, Offset: 1 << 20, Elided: 1180, Fin: true, Unreliable: true},
		&StreamFrame{StreamID: 0, Data: []byte("HTTP/1.1 200 OK\r\n\r\n")},
		&LossReportFrame{StreamID: 1, Offset: 5, Length: 6}, &MaxDataFrame{Max: 1 << 30}, PingFrame{},
	}}).Encode())
	f.Add([]byte{packetHeaderByte, 0, frameTypeStream | elidedBit, 0, 0})
	f.Add((&Packet{Number: 3, Frames: []Frame{
		&AckFrame{Ranges: []AckRange{{First: 70, Last: 90}, {First: 40, Last: 60}, {First: 2, Last: 9}}}, PingFrame{},
		&AckFrame{Ranges: []AckRange{{First: 80, Last: 99}, {First: 40, Last: 60}, {First: 2, Last: 9}}},
	}}).Encode())
	ack32 := &AckFrame{}
	for pn := uint64(20000); len(ack32.Ranges) < 32; pn -= 600 {
		ack32.Ranges = append(ack32.Ranges, AckRange{First: pn, Last: pn + 100})
	}
	f.Add((&Packet{Number: 1 << 14, Frames: []Frame{ack32, &StreamFrame{StreamID: 5, Offset: 1 << 30, Elided: 700}}}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePacket(b)
		if err != nil {
			return
		}
		for _, fr := range p.Frames {
			if sf, ok := fr.(*StreamFrame); ok && sf.Elided > 0 && sf.Data != nil {
				t.Fatalf("frame both real and elided: %+v", sf)
			}
		}
		if !sizesAgree(p) {
			t.Fatalf("a frame's or the packet's wire size is not its encoded length + elided payload: %#v", p)
		}
		again, err := DecodePacket(p.Encode())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("re-decode mismatch (%v):\n got %#v\nwant %#v", err, again, p)
		}
	})
}

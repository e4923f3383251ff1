package quic

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"voxel/internal/netem"
	"voxel/internal/sim"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 63, 64, 16383, 16384, 1073741823, 1073741824, maxVarint8}
	for _, v := range cases {
		b := appendVarint(nil, v)
		got, rest, err := consumeVarint(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Errorf("roundtrip(%d) = %d, rest=%d, err=%v", v, got, len(rest), err)
		}
		if len(b) != varintLen(v) {
			t.Errorf("varintLen(%d) = %d, encoded %d", v, varintLen(v), len(b))
		}
	}
}

func TestVarintBoundaryLengths(t *testing.T) {
	if l := len(appendVarint(nil, 63)); l != 1 {
		t.Errorf("63 should encode in 1 byte, got %d", l)
	}
	if l := len(appendVarint(nil, 64)); l != 2 {
		t.Errorf("64 should encode in 2 bytes, got %d", l)
	}
	if l := len(appendVarint(nil, 16384)); l != 4 {
		t.Errorf("16384 should encode in 4 bytes, got %d", l)
	}
	if l := len(appendVarint(nil, 1073741824)); l != 8 {
		t.Errorf("2^30 should encode in 8 bytes, got %d", l)
	}
}

func TestVarintTruncated(t *testing.T) {
	b := appendVarint(nil, 100000)
	for i := 0; i < len(b); i++ {
		if _, _, err := consumeVarint(b[:i]); err == nil {
			t.Errorf("truncated varint of %d bytes decoded without error", i)
		}
	}
}

func TestPropertyVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v %= maxVarint8
		b := appendVarint(nil, v)
		got, rest, err := consumeVarint(b)
		return err == nil && got == v && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func framesEqual(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// recordOf returns the packet record a connection would transmit for p: an
// ACK's ranges snapshotted, every other frame copied by value (p lists them
// as packets are packed: the ACK, control frames, stream frames).
func recordOf(p *Packet) *txRecord {
	tx := &txRecord{pn: p.Number, size: p.WireSize() + wireOverhead}
	for _, f := range p.Frames {
		switch f := f.(type) {
		case *AckFrame:
			tx.ack.Ranges = append(tx.ack.Ranges[:0], f.Ranges...)
		case *StreamFrame:
			tx.streams = append(tx.streams, *f)
		case *MaxDataFrame:
			tx.ctrl = append(tx.ctrl, ctrlFrame{kind: frameTypeMaxData, maxData: *f})
		case *LossReportFrame:
			tx.ctrl = append(tx.ctrl, ctrlFrame{kind: frameTypeLossReport, loss: *f})
		case PingFrame:
			tx.ctrl = append(tx.ctrl, ctrlFrame{kind: frameTypePing})
		}
	}
	return tx
}

// elidedBytes sums the payload the frames leave off the wire encoding.
func elidedBytes(frames []Frame) int {
	n := 0
	for _, f := range frames {
		if sf, ok := f.(*StreamFrame); ok {
			n += sf.Elided
		}
	}
	return n
}

// sizesAgree is the property every size in the simulation rests on: a frame
// occupies wireSize() bytes — its encoding plus the payload it elides — and a
// packet the sum of its frames behind the header.
func sizesAgree(p *Packet) bool {
	for _, f := range p.Frames {
		if len(f.appendTo(nil))+elidedBytes([]Frame{f}) != f.wireSize() {
			return false
		}
	}
	return len(p.Encode())+elidedBytes(p.Frames) == p.WireSize()
}

func TestPacketRoundTrip(t *testing.T) {
	pkt := &Packet{
		Number: 7777,
		Frames: []Frame{
			&AckFrame{Ranges: []AckRange{{First: 10, Last: 20}, {First: 1, Last: 5}}},
			&StreamFrame{StreamID: 4, Offset: 123456, Data: []byte("hello world"), Fin: true},
			&StreamFrame{StreamID: 3, Offset: 0, Data: []byte{1, 2, 3}, Unreliable: true},
			&LossReportFrame{StreamID: 3, Offset: 99, Length: 1000},
			&MaxDataFrame{Max: 1 << 24},
			PingFrame{},
		},
	}
	enc := pkt.Encode()
	if len(enc) != pkt.WireSize() || !sizesAgree(pkt) {
		t.Fatalf("WireSize = %d, encoded %d", pkt.WireSize(), len(enc))
	}
	dec, err := DecodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Number != pkt.Number {
		t.Fatalf("pn = %d, want %d", dec.Number, pkt.Number)
	}
	if !framesEqual(dec.Frames, pkt.Frames) {
		t.Fatalf("frames mismatch:\n got %#v\nwant %#v", dec.Frames, pkt.Frames)
	}
}

func TestEmptyDataStreamFrameRoundTrip(t *testing.T) {
	pkt := &Packet{Number: 1, Frames: []Frame{
		&StreamFrame{StreamID: 2, Offset: 500, Fin: true, Unreliable: true},
	}}
	dec, err := DecodePacket(pkt.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sf := dec.Frames[0].(*StreamFrame)
	if !sf.Fin || !sf.Unreliable || sf.Offset != 500 || len(sf.Data) != 0 {
		t.Fatalf("bad decode: %#v", sf)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},                      // wrong header byte
		{packetHeaderByte},          // missing pn
		{packetHeaderByte, 0, 0xFF}, // unknown frame type
		{packetHeaderByte, 0, frameTypeStream, 0, 0, 5, 1, 2}, // truncated stream data
		{packetHeaderByte, 0, frameTypeAck, 1, 5, 2},          // first > last ack range
	}
	for i, b := range cases {
		if _, err := DecodePacket(b); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestAckEliciting(t *testing.T) {
	s := sim.New(1)
	_, c := NewPair(s, netem.NewFixedPath(s, 10e6, 1200), Config{}, Config{})
	ackOnly := &Packet{Number: 1, Frames: []Frame{&AckFrame{Ranges: []AckRange{{0, 0}}}}}
	c.receive(recordOf(ackOnly))
	if c.Stats().PacketsSent != 0 {
		t.Fatal("ACK-only packet should not be ack-eliciting")
	}
	withData := &Packet{Number: 2, Frames: []Frame{
		&AckFrame{Ranges: []AckRange{{0, 0}}},
		&StreamFrame{StreamID: 0, Data: []byte("x")},
	}}
	c.receive(recordOf(withData))
	if c.Stats().PacketsSent != 1 {
		t.Fatal("packet with stream data should be ack-eliciting")
	}
}

func TestPropertyStreamFrameRoundTrip(t *testing.T) {
	f := func(id, off uint32, data []byte, fin, unrel bool) bool {
		fr := &StreamFrame{StreamID: uint64(id), Offset: uint64(off), Data: data, Fin: fin, Unreliable: unrel}
		pkt := &Packet{Number: uint64(id) + 1, Frames: []Frame{fr}}
		dec, err := DecodePacket(pkt.Encode())
		if err != nil || !sizesAgree(pkt) {
			return false
		}
		got := dec.Frames[0].(*StreamFrame)
		return got.StreamID == fr.StreamID && got.Offset == fr.Offset &&
			bytes.Equal(got.Data, fr.Data) && got.Fin == fr.Fin && got.Unreliable == fr.Unreliable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAckFrameRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		fr := &AckFrame{}
		base := uint64(rng.Intn(1000000))
		for i := 0; i < count; i++ {
			first := base + uint64(rng.Intn(100))
			last := first + uint64(rng.Intn(100))
			fr.Ranges = append(fr.Ranges, AckRange{First: first, Last: last})
			base = last + 2
		}
		pkt := &Packet{Number: 9, Frames: []Frame{fr}}
		dec, err := DecodePacket(pkt.Encode())
		if err != nil || !sizesAgree(pkt) {
			return false
		}
		return reflect.DeepEqual(dec.Frames[0], fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

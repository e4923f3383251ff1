package quic

import (
	"testing"

	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/sim"
)

// armedPair is a connection pair on a kernel with the checker armed.
func armedPair() (client, server *Conn) {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	return NewPair(s, netem.NewFixedPath(s, 10e6, 64), Config{}, Config{})
}

// wantViolation fails t unless the recovered panic r is a violation of rule.
func wantViolation(t *testing.T, r any, rule invariant.Rule) {
	t.Helper()
	if v, ok := invariant.AsViolation(r); !ok || v.Rule != rule {
		t.Fatalf("recovered %v, want a %s violation", r, rule)
	}
}

// TestWitnessQuicPacketConservation: a forged send count — one ack-eliciting
// packet more than were ever pushed in flight — is a quic.packet-conservation
// violation at the next conservation check (each ACK runs one).
func TestWitnessQuicPacketConservation(t *testing.T) {
	c, _ := armedPair()
	c.elicSent++
	defer func() { wantViolation(t, recover(), invariant.QuicPacketConservation) }()
	c.checkConservation()
}

// TestWitnessQuicByteConservation: the same forgery over bytes alone — the
// packet count still balances — is a quic.byte-conservation violation.
func TestWitnessQuicByteConservation(t *testing.T) {
	c, _ := armedPair()
	c.elicBytes += 1200
	defer func() { wantViolation(t, recover(), invariant.QuicByteConservation) }()
	c.checkConservation()
}

// TestWitnessQuicReliableContiguity: a gapped reliable FIN — a reliable
// stream whose final size is known and covered, but with a hole that only a
// loss report fills — is a quic.reliable-contiguity violation before the fin
// callback runs.
func TestWitnessQuicReliableContiguity(t *testing.T) {
	c, _ := armedPair()
	s := c.OpenStream(false)
	s.received.Add(0, 1000)
	s.lost.Add(1000, 2000)
	s.received.Add(2000, 3000)
	s.finalKnown, s.finalSize = true, 3000
	defer func() { wantViolation(t, recover(), invariant.QuicReliableContiguity) }()
	s.OnFin(func(uint64) { t.Fatal("a reliable stream finished with a gap") })
}

// TestDetachedReliableStreamIsStillChecked: a detached stream keeps a fin
// callback, so a reliable one that finishes with a gap is still a
// quic.reliable-contiguity violation — detaching a stale request stream does
// not switch its check off — and what arrives after Detach reaches no
// callback.
func TestDetachedReliableStreamIsStillChecked(t *testing.T) {
	c, _ := armedPair()
	s := c.OpenStream(false)
	s.OnData(func(uint64, uint64, []byte) { t.Fatal("a detached stream delivered data") })
	s.OnFin(func(uint64) { t.Fatal("a detached stream ran its reader's fin callback") })
	s.Detach()
	s.handleData(&StreamFrame{Offset: 0, Elided: 1000})
	s.lost.Add(1000, 2000)
	defer func() { wantViolation(t, recover(), invariant.QuicReliableContiguity) }()
	s.handleData(&StreamFrame{Offset: 2000, Elided: 1000, Fin: true})
}

// TestWitnessQuicWireRoundtrip: under an armed checker transmit holds a
// record to the codec — every frame kind passes when the size sent is the
// size encoded, and a record sealed one byte off is a quic.wire-roundtrip
// violation. (The armed transfers of the package's tests run it on every
// packet they send.)
func TestWitnessQuicWireRoundtrip(t *testing.T) {
	c, _ := armedPair()
	pkt := &Packet{Frames: []Frame{
		&AckFrame{Ranges: []AckRange{{First: 70, Last: 90}, {First: 2, Last: 9}}},
		&MaxDataFrame{Max: 1 << 30}, &LossReportFrame{StreamID: 3, Offset: 1 << 20, Length: 1180}, PingFrame{},
		&StreamFrame{StreamID: 4, Offset: 1 << 14, Data: []byte("HTTP/1.1 206")},
		&StreamFrame{StreamID: 3, Offset: 1 << 30, Elided: 900, Fin: true, Unreliable: true},
		&StreamFrame{StreamID: 8, Offset: 77, Fin: true},
	}}
	frameBytes := pkt.WireSize() - 1 - varintLen(pkt.Number)
	tx := recordOf(pkt)
	c.seal(tx, frameBytes)
	c.transmit(tx)

	defer func() { wantViolation(t, recover(), invariant.QuicWireRoundtrip) }()
	tx = recordOf(pkt)
	c.seal(tx, frameBytes-1)
	c.transmit(tx)
}

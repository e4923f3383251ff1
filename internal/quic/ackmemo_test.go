package quic

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/sim"
)

// freshAck encodes the ACK frame for a packet-number history the plain way:
// largest first, capped at 32 ranges, through AckFrame.appendTo.
func freshAck(rs []ByteRange) []byte {
	f := &AckFrame{}
	for i := len(rs) - 1; i >= 0 && len(f.Ranges) < 32; i-- {
		f.Ranges = append(f.Ranges, AckRange{First: rs[i].Start, Last: rs[i].End - 1})
	}
	return f.appendTo(nil)
}

// randomArrival draws the next packet number of a lossy, reordering,
// duplicating path: mostly the next one, sometimes a skip (new gap), a late
// fill of an old hole, or a duplicate.
func randomArrival(rng *rand.Rand, next *uint64) uint64 {
	switch p := rng.Intn(100); {
	case p < 70 || *next < 8:
		*next++
	case p < 82:
		*next += 2 + uint64(rng.Intn(3)) // open a gap
	case p < 94:
		return uint64(rng.Int63n(int64(*next))) // late arrival or duplicate
	default:
		return *next - 1 // duplicate of the newest
	}
	return *next - 1
}

// TestAckMemoBuildAckMatchesFreshEncode is the receive-side memo contract:
// whatever the arrival pattern — in order, gaps, late fills, duplicates,
// more than 32 gaps — buildAck's bytes are those of an AckFrame built from
// scratch, after every single step.
func TestAckMemoBuildAckMatchesFreshEncode(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &Conn{}
		next := uint64(rng.Intn(3)) * 60 // also cross the 1→2-byte varint boundary
		maxRanges := 0
		for step := 0; step < 3000; step++ {
			pn := randomArrival(rng, &next)
			c.recvdPNs.Add(pn, pn+1)
			got, want := c.buildAck(), freshAck(c.recvdPNs.Ranges())
			if !bytes.Equal(got.wire, want) || got.wireSize() != len(want) || !bytes.Equal(got.appendTo(nil), want) {
				t.Fatalf("seed %d step %d (pn %d, %d ranges):\n got %x\nwant %x", seed, step, pn, len(c.recvdPNs.Ranges()), got.wire, want)
			}
			maxRanges = max(maxRanges, len(c.recvdPNs.Ranges()))
		}
		if seed == 1 && maxRanges <= 32 {
			t.Fatalf("history peaked at %d ranges; the 32-range cap shift was not exercised", maxRanges)
		}
	}
}

// checkMemoDecode walks one packet's frames through c's memoising decoder
// and through a fresh decodeFrame, and requires the same verdict, kind,
// decoded frame and remaining bytes for every frame.
func checkMemoDecode(t *testing.T, c *Conn, pkt []byte) {
	t.Helper()
	if len(pkt) == 0 || pkt[0] != packetHeaderByte {
		return
	}
	_, b, err := consumeVarint(pkt[1:])
	if err != nil {
		return
	}
	for i := 0; len(b) > 0; i++ {
		var got, want rxFrame
		gotRest, gotErr := c.decodeMemo(b, &got)
		wantRest, wantErr := decodeFrame(b, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("frame %d of %x: memo err %v, decodeFrame err %v", i, pkt, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		same := got.kind == want.kind && len(gotRest) == len(wantRest)
		switch want.kind {
		case frameTypeAck:
			same = same && slices.Equal(got.ack.Ranges, want.ack.Ranges)
		case frameTypeMaxData:
			same = same && got.maxData == want.maxData
		case frameTypeLossReport:
			same = same && got.loss == want.loss
		case frameTypeStream:
			g, w := got.stream, want.stream
			same = same && bytes.Equal(g.Data, w.Data)
			g.Data, w.Data = nil, nil
			same = same && reflect.DeepEqual(g, w)
		}
		if !same {
			t.Fatalf("frame %d of %x: memo decoded %+v (rest %d), decodeFrame %+v (rest %d)", i, pkt, got, len(gotRest), want, len(wantRest))
		}
		b = wantRest
	}
}

// TestAckMemoDecodeMatchesDecodeFrame is the send-side memo contract: one
// memoising decoder fed a long sequence of packets — the ACKs of an evolving
// history, other frames in front of and behind them, and corrupted copies
// (flipped byte, truncation, wrong count) — answers every frame exactly as
// a fresh decodeFrame does. A poisoned memo would show on a later packet.
func TestAckMemoDecodeMatchesDecodeFrame(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rx, dec Conn // rx builds the ACKs, dec decodes them
		next := uint64(0)
		for step := 0; step < 2000; step++ {
			pn := randomArrival(rng, &next)
			if step%3 == 0 {
				pn = next // steady phases: the memo must hit, not only miss
				next++
			}
			rx.recvdPNs.Add(pn, pn+1)
			frames := []Frame{rx.buildAck()}
			if rng.Intn(4) == 0 {
				frames = append([]Frame{&MaxDataFrame{Max: uint64(step)}}, frames...)
			}
			if rng.Intn(4) == 0 {
				frames = append(frames, &StreamFrame{StreamID: 3, Offset: uint64(step), Elided: 1 + rng.Intn(900)}, rx.buildAck())
			}
			pkt := (&Packet{Number: uint64(step), Frames: frames}).Encode()
			checkMemoDecode(t, &dec, pkt)
			switch bad := bytes.Clone(pkt); rng.Intn(6) {
			case 0:
				bad[2+rng.Intn(len(bad)-2)] ^= 1 << uint(rng.Intn(8))
				checkMemoDecode(t, &dec, bad)
			case 1:
				checkMemoDecode(t, &dec, bad[:2+rng.Intn(len(bad)-2)])
			case 2:
				if i := bytes.IndexByte(bad[2:], frameTypeAck); i >= 0 && bad[2+i+1] < 63 {
					bad[2+i+1]++ // one range more than the frame carries
					checkMemoDecode(t, &dec, bad)
				}
			}
			checkMemoDecode(t, &dec, pkt) // and the good packet again, after the bad one
		}
	}
}

// TestAckMemoMalformedPacketDroppedWhole: a packet whose valid 32-range ACK
// is followed by a malformed frame is dropped before its ACK is acted on,
// and the well-formed ACK after it — which finds the dropped packet's ACK in
// the memo — is processed as if the bad packet had never arrived.
func TestAckMemoMalformedPacketDroppedWhole(t *testing.T) {
	s := sim.New(1)
	c := benchSender(s)
	fillWindow(c, s, 100, 64)
	var rx Conn
	for pn := uint64(0); pn < 62; pn += 2 {
		rx.recvdPNs.Add(pn, pn+1) // 31 old ranges below the window
	}
	rx.recvdPNs.Add(100, 110)
	ack := rx.buildAck()
	if n := len(rx.recvdPNs.Ranges()); n != 32 {
		t.Fatalf("history has %d ranges, want 32", n)
	}
	good := (&Packet{Number: 7, Frames: []Frame{ack}}).Encode()
	for _, tail := range [][]byte{
		{frameTypeMaxData},                        // truncated varint
		{0x3f},                                    // unknown frame type
		{frameTypeUStream | elidedBit, 4, 0, 0},   // bad elided length
		{frameTypeAck, 1, 9, 3},                   // First > Last
		{frameTypeAck, 33, 9},                     // truncated second ACK
		{frameTypeStream, 4, 0, 0x40},             // truncated STREAM header
		{frameTypeLossReport, 1, 2},               // truncated LOSS_REPORT
		{frameTypeStream, 4, 0, 5, 'a', 'b', 'c'}, // STREAM shorter than its length
	} {
		c.receive(append(bytes.Clone(good), tail...))
		if st := c.Stats(); st.PacketsReceived != 0 || c.ackedPkts != 0 || c.anyAcked || c.sentQ.size() != 64 ||
			!c.recvdPNs.IsEmpty() || c.ackPending || len(c.streams) != 0 {
			t.Fatalf("tail %x: malformed packet was acted on: %+v, acked %d, in flight %d, recvd %v, ackPending %v",
				tail, st, c.ackedPkts, c.sentQ.size(), c.recvdPNs.Ranges(), c.ackPending)
		}
	}
	rx.recvdPNs.Add(110, 112)
	c.receive((&Packet{Number: 8, Frames: []Frame{rx.buildAck()}}).Encode())
	if got := inflightPNs(c); c.ackedPkts != 12 || len(got) != 52 || got[0] != 112 || c.largestAcked != 111 {
		t.Fatalf("well-formed ACK after the dropped ones: acked %d, largest %d, in flight %v", c.ackedPkts, c.largestAcked, got)
	}
	if st := c.Stats(); st.PacketsReceived != 1 || st.PacketsDeclLost != 0 || !c.recvdPNs.Contains(8, 9) {
		t.Fatalf("well-formed packet not counted once: %+v, recvd %v", st, c.recvdPNs.Ranges())
	}
}

// dropTap measures what a link's impairment chain did, from both ends of
// the chain: head notes the size of the datagram leaving the serializer
// (the step in the link's byte counter), tail whether the chain dropped it.
type dropTap struct {
	link                  *netem.Link
	seen, size            uint64
	dropped, droppedBytes uint64
	delayed, duplicated   uint64
}

type tapEnd struct {
	t    *dropTap
	tail bool
}

func (e tapEnd) Apply(_ sim.Time, _ *rand.Rand, f *netem.Fate) {
	t := e.t
	switch {
	case !e.tail:
		b := t.link.Stats().BytesSent
		t.size, t.seen = b-t.seen, b
	case f.Drop:
		t.dropped++
		t.droppedBytes += t.size
	default:
		if f.ExtraDelay > 0 {
			t.delayed++
		}
		if f.Duplicate {
			t.duplicated++
		}
	}
}

// TestAckMemoLossReportAccuracy is the transport assertion behind
// LOSS_REPORT (ROADMAP item 4, "loss-report accuracy under reordering"): an
// unreliable transfer through 2 % loss — alone, so the ACK history only ever
// grows gaps and both memos hit between them, and with reordering and
// duplication on top, so holes fill and both memos miss — ends with every
// byte either received or reported lost, never both, and with the sender's
// loss accounting equal to what the link tap saw dropped: nothing spurious,
// nothing missed. (The held-back packets are overtaken by fewer than three,
// so reordering alone must not trip the packet threshold.)
func TestAckMemoLossReportAccuracy(t *testing.T) {
	const size = 4 << 20
	for _, tc := range []struct {
		name  string
		chain netem.Chain
	}{
		{"loss", netem.Chain{netem.IIDLoss{P: 0.02}}},
		{"reorder+dup+loss", netem.Chain{
			netem.Reorder{P: 0.05, Delay: 1500 * time.Microsecond},
			netem.Duplicate{P: 0.02}, netem.IIDLoss{P: 0.02}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			path := netem.NewFixedPath(s, 10e6, 1200)                                  // ≈ 1 ms per packet
			path.Down = netem.NewFixedLink(s, 10e6, netem.DefaultLastMileDelay, 1<<14) // no queue drops: the tap sees every loss
			tap := &dropTap{link: path.Down}
			chain := append(netem.Chain{tapEnd{t: tap}}, tc.chain...)
			path.Down.Impair(append(chain, tapEnd{t: tap, tail: true}), 42)
			cfg := Config{InitialMaxData: 1 << 40} // no MAX_DATA: the server never sends a bare ACK
			client, server := NewPair(s, path, cfg, cfg)
			var rs *Stream
			var final uint64
			client.OnStream(func(st *Stream) {
				rs = st
				st.OnFin(func(n uint64) { final = n })
			})
			st := server.OpenStream(true)
			st.WriteZeros(size)
			st.CloseWrite()
			s.RunUntil(120 * time.Second)

			if final != size {
				t.Fatalf("stream finalized at %d, want %d", final, size)
			}
			recv, lost := rs.Received(), rs.Lost()
			if !CoveredBy(recv, lost, 0, size) || recv.CoveredBytes()+lost.CoveredBytes() != size {
				t.Fatalf("received %d B + lost %d B do not partition [0, %d)", recv.CoveredBytes(), lost.CoveredBytes(), size)
			}
			for _, r := range lost.Ranges() {
				if g := recv.AppendGaps(nil, r.Start, r.End); len(g) != 1 || g[0] != r {
					t.Fatalf("range %v is both lost and received", r)
				}
			}
			st1, link := server.Stats(), path.Down.Stats()
			if tap.dropped < 30 || link.Dropped != 0 || tap.dropped != link.ImpairedDrops {
				t.Fatalf("tap saw %d drops (link: %d impaired, %d queue); want ≥ 30 impaired, no queue drops", tap.dropped, link.ImpairedDrops, link.Dropped)
			}
			if !server.sentQ.empty() || st1.PacketsDeclLost != tap.dropped || server.lostBytes != tap.droppedBytes {
				t.Fatalf("sender declared %d packets / %d B lost (in flight %d); the link dropped %d / %d B",
					st1.PacketsDeclLost, server.lostBytes, server.sentQ.size(), tap.dropped, tap.droppedBytes)
			}
			if st1.UnreliableLost != lost.CoveredBytes() || st1.UnreliableLost != size-recv.CoveredBytes() {
				t.Fatalf("UnreliableLost %d, reported lost %d, never received %d", st1.UnreliableLost, lost.CoveredBytes(), size-recv.CoveredBytes())
			}
			reordering := len(tc.chain) > 1
			if holes := len(client.recvdPNs.Ranges()) - 1; holes < 32 || reordering != (tap.delayed > 50 && tap.duplicated > 20) {
				t.Fatalf("%d holes in the ACK history, %d packets held back, %d duplicated", holes, tap.delayed, tap.duplicated)
			}
		})
	}
}

package quic

import (
	"bytes"
	"math/rand"
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

// TestBuildAckMatchesRangeHistory checks the ACK snapshot against brute
// force: whatever the arrival pattern — in order, gaps, late fills,
// duplicates, more than 32 gaps — after every single arrival through
// recordArrival the snapshot is the 32 highest runs of the set of packet
// numbers seen so far, largest first, and it occupies and encodes to exactly
// what an AckFrame built from scratch does (AckFrame.appendTo is the
// reference encoder).
func TestBuildAckMatchesRangeHistory(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &Conn{store: &packetStore{}}
		next := uint64(rng.Intn(3)) * 60 // also cross the 1→2-byte varint boundary
		seen := map[uint64]bool{}
		var got AckFrame
		maxRanges := 0
		for step := 0; step < 3000; step++ {
			pn := randomArrival(rng, &next)
			c.recordArrival(pn)
			seen[pn] = true
			size := c.buildAck(&got)

			var want []AckRange
			for p := int64(next) - 1; p >= 0 && len(want) < 32; p-- {
				if !seen[uint64(p)] {
					continue
				}
				r := AckRange{First: uint64(p), Last: uint64(p)}
				for ; p > 0 && seen[uint64(p-1)]; p-- {
					r.First--
				}
				want = append(want, r)
			}
			if !slices.Equal(got.Ranges, want) {
				t.Fatalf("seed %d step %d (pn %d): snapshot %v, history %v", seed, step, pn, got.Ranges, want)
			}
			if enc := freshAck(c.recvdPNs.Ranges()); size != len(enc) || got.wireSize() != len(enc) || !bytes.Equal(got.appendTo(nil), enc) {
				t.Fatalf("seed %d step %d (pn %d, %d ranges): buildAck says %d B, wireSize %d, encodes to %x; a fresh AckFrame is %x",
					seed, step, pn, len(got.Ranges), size, got.wireSize(), got.appendTo(nil), enc)
			}
			maxRanges = max(maxRanges, len(c.recvdPNs.Ranges()))
		}
		if seed == 1 && maxRanges <= 32 {
			t.Fatalf("history peaked at %d ranges; the 32-range cap shift was not exercised", maxRanges)
		}
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

// TestLossReportAccuracy is the transport assertion behind LOSS_REPORT
// (ROADMAP item 1, "loss-report accuracy under reordering"): an unreliable
// transfer through 2 % loss — alone, so the ACK history only ever grows
// gaps, and with reordering and duplication on top, so holes fill — ends
// with every byte either received or reported lost, never both, and with the
// sender's loss accounting equal to what the link tap saw dropped: nothing
// spurious, nothing missed. (The held-back packets are overtaken by fewer
// than three, so reordering alone must not trip the packet threshold.)
func TestLossReportAccuracy(t *testing.T) {
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
			if server.sentQ.len() != 0 || st1.PacketsDeclLost != tap.dropped || server.lostBytes != tap.droppedBytes {
				t.Fatalf("sender declared %d packets / %d B lost (in flight %d); the link dropped %d / %d B",
					st1.PacketsDeclLost, server.lostBytes, server.sentQ.len(), tap.dropped, tap.droppedBytes)
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

package quic

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/recycletest"
	"voxel/internal/sim"
)

// recordTap watches every packet record one connection sends: it seeds the
// kernel's packet store, which both ends of the connection draw from, with n
// records whose deliver callbacks report a delivery of c's to onDeliver
// first, and sent lists the records c sealed since it last looked — called
// after every simulation event, that is the moment they were sent.
type recordTap struct {
	c         *Conn
	recs      []*txRecord
	lastPN    []uint64 // per record, the last packet number c sent in it
	delivered uint64
}

func tapRecords(c *Conn, n int, onDeliver func(*txRecord)) *recordTap {
	t := &recordTap{c: c}
	for i := 0; i < n; i++ {
		tx := c.getTx()
		deliver := tx.deliver
		tx.deliver = func() {
			if tx.from == c {
				t.delivered++
				onDeliver(tx)
			}
			deliver()
		}
		t.recs, t.lastPN = append(t.recs, tx), append(t.lastPN, ^uint64(0))
	}
	for _, tx := range t.recs {
		c.store.tx.Put(tx)
	}
	return t
}

// sameStreamFrame compares every header field and the payload bytes.
func sameStreamFrame(a, b *StreamFrame) bool {
	return a.StreamID == b.StreamID && a.Offset == b.Offset && a.Elided == b.Elided &&
		a.Fin == b.Fin && a.Unreliable == b.Unreliable && bytes.Equal(a.Data, b.Data)
}

// sent compares packet numbers only among c's own packets, which ascend: the
// peer sends from the same records.
func (t *recordTap) sent() (fresh []*txRecord) {
	for i, tx := range t.recs {
		if tx.from == t.c && tx.pn != t.lastPN[i] {
			t.lastPN[i] = tx.pn
			fresh = append(fresh, tx)
		}
	}
	return fresh
}

// TestRecordDoesNotAliasSenderFrames is the ownership rule of a packet in
// flight, by construction: a reliable transfer of real bytes over a link that
// loses, duplicates and holds packets back for longer than a round trip plus
// the loss timer. A held-back packet is declared lost; its StreamFrames go
// back to the retransmit queue, are cut to fit (cutFront), acknowledged,
// recycled through the kernel's packet store and reused — and then both
// copies of the old packet arrive. Every delivery must present exactly the
// frames the sender's sentPacket held at the moment it was sent, and under an
// armed checker the stream still finalises as one contiguous range of the
// right bytes.
func TestRecordDoesNotAliasSenderFrames(t *testing.T) {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	path := netem.NewFixedPath(s, 20e6, 4096) // no queue drops: a store of 4096 records never runs dry
	path.Down.Impair(netem.Chain{
		netem.IIDLoss{P: 0.01},
		netem.Reorder{P: 0.03, Delay: 400 * time.Millisecond},
		netem.Duplicate{P: 0.3},
	}, 7)
	client, server := NewPair(s, path, Config{}, Config{})

	const total = 1 << 20
	data := payload(total)
	var got *collect
	client.OnStream(func(st *Stream) { got = newCollect(st, total) })

	type sentFrame struct {
		at    *StreamFrame // the sender's frame, for watching what becomes of it
		frame StreamFrame  // what it held when the packet was sent
	}
	type sentPkt struct {
		at     sim.Time
		frames []sentFrame
	}
	atSend := map[uint64]*sentPkt{}
	var late, stale, split int
	tap := tapRecords(server, 4096, func(tx *txRecord) {
		var want []sentFrame
		if sp := atSend[tx.pn]; sp != nil { // nil: an ACK-only packet, never in the in-flight queue
			want = sp.frames
			if s.Now()-sp.at > 300*time.Millisecond {
				late++
			}
		}
		if len(tx.streams) != len(want) {
			t.Fatalf("packet %d delivers %d stream frames, was sent with %d", tx.pn, len(tx.streams), len(want))
		}
		changed := false
		for i := range tx.streams {
			f, w := &tx.streams[i], &want[i]
			if !sameStreamFrame(f, &w.frame) {
				t.Fatalf("packet %d delivers %+v, was sent as %+v (the sender's frame now holds %+v)", tx.pn, *f, w.frame, *w.at)
			}
			if !bytes.Equal(f.Data, data[f.Offset:][:len(f.Data)]) {
				t.Fatalf("packet %d delivers wrong bytes at offset %d", tx.pn, f.Offset)
			}
			changed = changed || !sameStreamFrame(w.at, &w.frame)
		}
		if changed {
			stale++
		}
	})

	st := server.OpenStream(false)
	st.Write(data)
	st.CloseWrite()
	// Traffic the other way keeps ACKs riding on the server's data packets, so
	// a lost full-size frame no longer fits the packet that retransmits it.
	up := client.OpenStream(false)
	up.Write(data)
	up.CloseWrite()
	next := uint64(0)            // first packet number not snapshotted yet
	firstCut := map[uint64]int{} // offset → length of the frame first sent there
	// One event at a time, so every packet is snapshotted as it is sent.
	for more := true; more; {
		more = s.RunUntilBudget(120*time.Second, 1)
		q := &server.sentQ
		for i := q.head; i < len(q.items); i++ {
			sp := q.items[i]
			if sp.pn < next {
				continue
			}
			snap := &sentPkt{at: s.Now()}
			for _, f := range sp.streamFrames {
				snap.frames = append(snap.frames, sentFrame{at: f, frame: *f})
				if n, seen := firstCut[f.Offset]; !seen {
					firstCut[f.Offset] = f.Len()
				} else if n != f.Len() {
					split++ // a retransmission cut differently: cutFront ran on the lost frame
				}
			}
			atSend[sp.pn], next = snap, sp.pn+1
		}
	}

	if got == nil || !got.fin || got.size != total || !bytes.Equal(got.buf, data) {
		t.Fatal("transfer did not complete intact")
	}
	if n := client.Stats().PacketsReceived; tap.delivered != n || path.Down.Stats().Dropped != 0 {
		t.Fatalf("tapped %d of %d deliveries (%d queue drops): the record store ran dry", tap.delivered, n, path.Down.Stats().Dropped)
	}
	if st := server.Stats(); late < 20 || stale < 20 || split == 0 || st.RetransmitBytes == 0 || path.Down.Stats().Duplicated < 100 {
		t.Fatalf("the hazard was not exercised: %d late deliveries, %d after the sender's frames had changed (%d retransmit splits), %d B retransmitted, %d duplicates",
			late, stale, split, st.RetransmitBytes, path.Down.Stats().Duplicated)
	}
}

// TestAckSnapshotIsStable: an ACK is the history at the moment it was sent.
// The client's ACK packets are held back on the uplink while it keeps
// receiving (recordArrival) through a lossy downlink and keeps sending newer
// ACKs (buildAck); every one of them, whenever it arrives, delivers the
// ranges it was sent with.
func TestAckSnapshotIsStable(t *testing.T) {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	path := netem.NewFixedPath(s, 10e6, 1024)
	path.Down.Impair(netem.IIDLoss{P: 0.02}, 3)
	path.Up.Impair(netem.Reorder{P: 0.3, Delay: 150 * time.Millisecond}, 5)
	cfg := Config{InitialMaxData: 1 << 40}
	client, server := NewPair(s, path, cfg, cfg)
	done := false
	client.OnStream(func(st *Stream) { st.OnFin(func(uint64) { done = true }) })

	atSend := map[uint64][]AckRange{}
	var outdated int
	var now AckFrame
	tap := tapRecords(client, 4096, func(tx *txRecord) {
		want, ok := atSend[tx.pn]
		if !ok || !slices.Equal(tx.ack.Ranges, want) {
			t.Fatalf("packet %d delivers ACK %v, was sent with %v", tx.pn, tx.ack.Ranges, want)
		}
		if client.buildAck(&now); client.nextPN > tx.pn+1 && !slices.Equal(now.Ranges, want) {
			outdated++
		}
	})

	st := server.OpenStream(true)
	st.WriteZeros(2 << 20)
	st.CloseWrite()
	maxRanges := 0
	// One event at a time, so every ACK is snapshotted as it is sent.
	for more := true; more; {
		more = s.RunUntilBudget(60*time.Second, 1)
		for _, tx := range tap.sent() {
			atSend[tx.pn] = slices.Clone(tx.ack.Ranges)
			maxRanges = max(maxRanges, len(tx.ack.Ranges))
		}
	}
	if !done || tap.delivered != server.Stats().PacketsReceived {
		t.Fatalf("transfer done: %v; tapped %d of %d deliveries", done, tap.delivered, server.Stats().PacketsReceived)
	}
	if outdated < 100 || maxRanges < 20 {
		t.Fatalf("only %d ACKs arrived after the history had moved on and a newer ACK was sent; largest ACK %d ranges", outdated, maxRanges)
	}
}

// TestReleasedKernelPinsNothing: the kernel's packet store outlives the world,
// so once the world ends nothing in it may hold one. Two transfers are cut off
// mid-flight over a lossy link: a short unreliable one of written bytes, then
// a long reliable one of shared bytes. The store holds records, sent-packet
// entries and frames the world gave back, while others are still in flight,
// and lends out every stream of the world — whose callbacks close over the
// world and whose send queues alias its payload — and the ACK snapshot
// arrays. Release takes back everything still out. After that, neither
// connection, nor either payload, nor what a stream's callbacks captured may
// stay reachable through it.
func TestReleasedKernelPinsNothing(t *testing.T) {
	s := sim.New(1)
	var store *packetStore
	gone := make(chan string, 5)
	// lent reports how many of each pool's values are out.
	lent := func() [5]int {
		return [5]int{store.tx.Lent(), store.sent.Lent(), store.frames.Lent(), store.streams.Lent(), store.acks.Lent()}
	}
	func() {
		shared := new([1 << 20]byte)
		runtime.SetFinalizer(shared, func(*[1 << 20]byte) { gone <- "the shared payload" })
		written := new([64 << 10]byte)
		runtime.SetFinalizer(written, func(*[64 << 10]byte) { gone <- "the written payload" })
		path := netem.NewFixedPath(s, 20e6, 64)
		path.Down.Impair(netem.IIDLoss{P: 0.05}, 1)
		client, server := NewPair(s, path, Config{}, Config{})
		for _, c := range []*Conn{client, server} {
			// A connection sits in cycles, which finalizers do not see
			// through: watch a sentinel only it holds instead.
			sentinel := new([16]byte)
			runtime.SetFinalizer(sentinel, func(*[16]byte) { gone <- "a connection" })
			c.OnClose(func(error) { sentinel[0]++ })
		}
		captured := new([16]byte)
		runtime.SetFinalizer(captured, func(*[16]byte) { gone <- "a stream callback's capture" })
		client.OnStream(func(st *Stream) {
			st.OnData(func(uint64, uint64, []byte) { captured[0]++ })
			st.OnLost(func(uint64, uint64) { captured[1]++ })
			st.OnFin(func(uint64) { captured[2]++ })
		})
		un := server.OpenStream(true)
		un.Write(written[:])
		un.CloseWrite()
		st := server.OpenStream(false)
		st.WriteShared(shared[:])
		st.CloseWrite()
		s.RunUntil(300 * time.Millisecond)
		store = server.store
		out := lent()
		stored := [3]int{len(store.tx.All()) - out[0], len(store.sent.All()) - out[1], len(store.frames.All()) - out[2]}
		if client.store != store || slices.Contains(stored[:], 0) || slices.Contains(out[:3], 0) ||
			server.sentQ.len() == 0 || server.Stats().PacketsDeclLost == 0 || out[3] != 4 || out[4] != 2 || captured[1] == 0 {
			t.Fatalf("the world is too tidy to prove anything: %v records, sent-packet entries and frames stored, %v out, %d packets in flight, %d lost, %d streams and %d ACK arrays out, %d loss reports",
				stored, out[:3], server.sentQ.len(), server.Stats().PacketsDeclLost, out[3], out[4], captured[1])
		}
	}()
	s.Release()
	if out := lent(); out != [5]int{} || len(store.streams.All()) != 4 {
		t.Fatalf("the released kernel has %v records, sent-packet entries, frames, streams and ACK arrays still out, and %d streams, want none out and 4", out, len(store.streams.All()))
	}
	left := 5
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
		t.Fatalf("%d of the two connections, the two payloads and a stream callback's capture are still reachable from the released kernel's packet store", left)
	}
}

// TestRecycledStreamLooksFresh: Release hands every stream of the world back
// to the store scrubbed — each field zero but the storage a stream keeps for
// the next world — and the next world's streams are those, in the order the
// dead world opened them.
func TestRecycledStreamLooksFresh(t *testing.T) {
	sim.DropReleased()
	s := sim.New(1)
	client, _ := NewPair(s, netem.NewFixedPath(s, 20e6, 64), Config{}, Config{})
	first, second := client.OpenStream(false), client.OpenStream(false)
	recycletest.Dirty(first)
	recycletest.Dirty(second)
	store := client.store
	s.Release()
	if store.streams.Lent() != 0 || !slices.Equal(store.streams.All(), []*Stream{first, second}) {
		t.Fatalf("after Release the store has %d streams out and holds %v, want none out and the world's two", store.streams.Lent(), store.streams.All())
	}
	for _, st := range []*Stream{first, second} {
		recycletest.CheckScrubbed(t, st, "wbuf", "sendRuns.items", "received.ranges", "lost.ranges")
	}

	s = sim.New(2)
	client, _ = NewPair(s, netem.NewFixedPath(s, 20e6, 64), Config{}, Config{})
	if got := client.OpenStream(true); got != first || got.conn != client || got.id != 0 || !got.unreliable {
		t.Fatalf("the next world opened %p (conn %p, id %d, unreliable %v), want the recycled %p on its own connection", got, got.conn, got.id, got.unreliable, first)
	}
	if got := client.OpenStream(false); got != second {
		t.Fatalf("the next world's second stream is %p, want the dead world's second, %p", got, second)
	}
	s.Release()
}

// TestWriteCopiesIntoTheStreamBuffer: Write copies into the stream's own
// buffer and queues a full-capacity subslice of it — aliasing neither the
// caller's bytes nor, through a later append, another run — and a stream the
// next world takes from the store writes into that storage again.
func TestWriteCopiesIntoTheStreamBuffer(t *testing.T) {
	sim.DropReleased()
	var last *byte
	for world := 0; world < 2; world++ {
		s := sim.New(1)
		client, _ := NewPair(s, netem.NewFixedPath(s, 20e6, 64), Config{}, Config{})
		client.sendLimit = 0 // flow control holds the runs in the queue
		st := client.OpenStream(false)
		a, b := []byte("GET /a"), []byte("GET /b")
		st.Write(a)
		st.Write(b)
		a[0], b[0] = 'X', 'X'
		runs := st.sendRuns.live()
		if len(runs) != 2 || string(runs[0].data) != "GET /a" || string(runs[1].data) != "GET /b" || cap(runs[0].data) != 6 || cap(runs[1].data) != 6 {
			t.Fatalf("world %d: queued %q, want two full-capacity copies of what was written", world, runs)
		}
		if len(st.wbuf) != 12 || &runs[1].data[0] != &st.wbuf[6] {
			t.Fatalf("world %d: the second write was not appended to the stream's buffer", world)
		}
		if world == 1 && (&runs[0].data[0] != &st.wbuf[0] || &st.wbuf[0] != last) {
			t.Fatal("the next world's stream did not write into the buffer it was recycled with")
		}
		last = &st.wbuf[0]
		s.Release()
	}
}

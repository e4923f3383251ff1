package quic

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"voxel/internal/cc"
	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/sim"
)

// ErrIdleTimeout is the close reason when a connection saw no peer traffic
// for its configured idle timeout.
var ErrIdleTimeout = errors.New("quic: idle timeout")

// ErrClosed is the generic close reason for an application-initiated Close.
var ErrClosed = errors.New("quic: connection closed")

// Config parameterizes a QUIC* connection.
type Config struct {
	// InitialMaxData is the connection flow-control window granted to the
	// peer.
	InitialMaxData uint64
	// Controller overrides the congestion controller (default CUBIC).
	Controller cc.Controller

	// IdleTimeout closes the connection when no packet arrives from the
	// peer for this long, and is the connection's one recovery setting.
	// Above zero, the client also sends a keep-alive PING at half the
	// timeout whenever it is otherwise quiet, so an idle but healthy
	// connection is not torn down (e.g. while the player's buffer is full
	// and no requests are outstanding); both sides cap the PTO backoff at
	// ptoBackoffCap; and an httpsim client over the connection arms its
	// request deadline and retries. Zero is the legacy transport: a dead
	// link leaves the connection probing forever, and persistent
	// congestion at 3 consecutive PTOs resets the backoff.
	IdleTimeout sim.Time

	// Obs receives transport telemetry (packet/byte counters, RTT samples,
	// loss-report events). Nil disables recording at zero cost: every scope
	// method no-ops on a nil receiver, which the ACK-path allocation tests
	// pin at 0 allocs/op.
	Obs *obs.Scope
}

// mtu is the maximum QUIC packet size (before per-packet overhead),
// wireOverhead the per-packet on-wire overhead (UDP+IP headers),
// maxFrameBytes what a packet's frames may occupy (the header byte and a
// worst-case packet number taken off) and maxAckRanges the cap on the
// received-packet history one ACK reports.
const (
	mtu           = cc.MSS
	wireOverhead  = 28
	maxFrameBytes = mtu - 1 - 8
	maxAckRanges  = 32
)

// ptoBackoffCap bounds the PTO backoff exponent of a connection with an
// idle timeout, so probe spacing plateaus at PTO<<ptoBackoffCap instead of
// doubling without bound: through a multi-second blackout the connection
// keeps probing at a bounded period and finds the recovered link quickly.
// Persistent congestion is then declared once per streak of PTOs, and the
// exponent keeps growing up to the cap.
const ptoBackoffCap = 6

func (c Config) withDefaults() Config {
	if c.InitialMaxData == 0 {
		c.InitialMaxData = 16 << 20
	}
	if c.Controller == nil {
		c.Controller = cc.NewCubic()
	}
	return c
}

// Stats counts transport-level activity for the experiment harness.
type Stats struct {
	PacketsSent       uint64
	PacketsReceived   uint64
	PacketsDeclLost   uint64
	BytesSent         uint64 // QUIC payload bytes incl. headers
	StreamBytesSent   uint64 // new stream payload bytes
	RetransmitBytes   uint64 // reliable stream bytes retransmitted
	UnreliableLost    uint64 // unreliable stream bytes reported lost
	UnreliableRewrite uint64 // bytes re-sent via WriteAt (selective retx)
	PTOCount          uint64
}

type sentPacket struct {
	pn           uint64
	size         int // wire size incl. overhead, for cc accounting
	sentAt       sim.Time
	ackEliciting bool
	streamFrames []*StreamFrame
	ctrlFrames   []ctrlFrame
}

// ctrlFrame is one control frame — MAX_DATA, LOSS_REPORT or PING — by value,
// from the moment it is queued: nothing it passes through can alias it.
type ctrlFrame struct {
	kind    byte // frameTypeMaxData, frameTypeLossReport or frameTypePing
	maxData MaxDataFrame
	loss    LossReportFrame
}

// frame returns f as the Frame the codec sizes and encodes, pointing into f.
func (f *ctrlFrame) frame() Frame {
	switch f.kind {
	case frameTypeMaxData:
		return &f.maxData
	case frameTypeLossReport:
		return &f.loss
	}
	return PingFrame{}
}

// Conn is one endpoint of a QUIC* connection running inside the simulator.
type Conn struct {
	sim   *sim.Sim
	cfg   Config
	link  *netem.Link // direction toward the peer
	peer  *Conn
	ctl   cc.Controller
	rtt   cc.RTTEstimator
	stats Stats
	obs   *obs.Scope // nil = telemetry disabled (all calls no-op)

	// Conservation counters for the invariant checker: every ack-eliciting
	// packet pushed into sentQ must end up acked or declared lost, with the
	// remainder in flight. Plain uint adds on the hot path; the comparison
	// against the queue only happens with a checker armed on the sim.
	elicSent   uint64 // ack-eliciting packets pushed into sentQ
	elicBytes  uint64 // wire bytes of those packets
	ackedPkts  uint64 // packets removed from sentQ by an ACK
	ackedBytes uint64
	lostBytes  uint64 // wire bytes of packets declared lost

	// packet number spaces
	nextPN        uint64
	sentQ         fifo[*sentPacket] // in-flight ack-eliciting packets, ascending pn
	largestAcked  uint64
	anyAcked      bool
	recoveryStart sim.Time
	ptoTimer      *sim.Timer
	ptoCount      int
	lastAckElic   sim.Time

	// receiving: the packet-number history, and the next ACK's ranges — its
	// top maxAckRanges runs, largest first, in an array the packet store
	// lends — and their Σ varintLen(First) + varintLen(Last), kept current
	// by recordArrival, the history's one writer.
	recvdPNs     RangeSet
	ack          []AckRange
	ackBytes     int
	ackPending   bool
	ackElicCount int
	ackTimer     *sim.Timer

	// streams
	streams      map[uint64]*Stream
	nextStreamID uint64
	onStream     func(*Stream)
	active       fifo[*Stream] // streams with pending new data

	// frame queues
	ctrlQ      fifo[ctrlFrame]    // reliable: requeued on loss
	retransmit fifo[*StreamFrame] // lost reliable frames, unreliable FINs and WriteAt frames

	// flow control
	sendLimit uint64 // peer's MAX_DATA
	sentData  uint64 // new stream payload bytes sent
	recvLimit uint64 // what we advertised
	recvData  uint64 // stream payload bytes received (new bytes)

	// pacing
	paceTimer  *sim.Timer
	nextSendAt sim.Time
	sendArmed  bool

	// lifecycle
	closed    bool
	closeErr  error
	onClose   func(error)
	lastRecv  sim.Time   // virtual time of the last valid packet received
	idleTimer *sim.Timer // armed iff cfg.IdleTimeout > 0
	keepTimer *sim.Timer // armed iff cfg.IdleTimeout > 0 on the client

	// store is the kernel's packet storage, shared with every connection
	// of the world; scratch is this connection's own. One simulation runs
	// on one goroutine, so reuse needs no synchronization.
	store      *packetStore
	ackScratch []*sentPacket // newly-acked scratch for onAck
	gapScratch []ByteRange   // AppendGaps scratch for the streams' receive side
}

// packetStore is a kernel's packet storage (DESIGN.md §5), shared by every
// connection of its worlds: one sim.Pool each for the packet records,
// sent-packet entries, stream frames, streams and ACK snapshot arrays. A
// connection Puts records, entries and frames back as it is done with them;
// a stream is never retired while its world runs — a late frame or loss
// report for a finished stream still finds it — and a snapshot array serves
// its connection for the rest of the world, so those come back only when the
// world ends.
type packetStore struct {
	tx      sim.Pool[txRecord, *txRecord]
	sent    sim.Pool[sentPacket, *sentPacket]
	frames  sim.Pool[StreamFrame, *StreamFrame] // send side
	streams sim.Pool[Stream, *Stream]
	acks    sim.Pool[ackRanges, *ackRanges]
}

var packets sim.Local[packetStore]

// EndWorld takes back everything the ending world was lent.
func (p *packetStore) EndWorld() {
	p.tx.EndWorld()
	p.sent.EndWorld()
	p.frames.EndWorld()
	p.streams.EndWorld()
	p.acks.EndWorld()
}

// ackRanges is the storage of a connection's ACK snapshot.
type ackRanges [maxAckRanges]AckRange

func (a *ackRanges) Scrub() { *a = ackRanges{} }

// Scrub empties an entry whose frames have been handed off or freed,
// keeping the capacity of its frame slices.
func (sp *sentPacket) Scrub() {
	clear(sp.streamFrames)
	sp.pn, sp.size, sp.sentAt, sp.ackEliciting = 0, 0, 0, false
	sp.streamFrames, sp.ctrlFrames = sp.streamFrames[:0], sp.ctrlFrames[:0]
}

// Scrub zeroes a frame that no queue references anymore.
func (f *StreamFrame) Scrub() { *f = StreamFrame{} }

// txRecord is one packet in flight (DESIGN.md §5): its number, its size on
// the link and its frames, which the peer's receive is handed as they are —
// nothing is encoded. The frames are copies: the sender cuts, recycles and
// requeues its own StreamFrames (retransmit split, ACK, loss) while a delayed
// or duplicated copy of the packet is still inside the link, so a record
// never points at one. Payload is aliased, not copied — send runs are never
// written after Write/WriteShared. The record is read-only from transmit
// until the link's Done. Its two netem.Datagram callbacks are bound to the
// record once, when the store first hands it out, and reach the sender
// through from, so sending allocates nothing and a stored record holds no
// connection.
type txRecord struct {
	from *Conn // the sender, from getTx until the record is stored again
	pn   uint64
	size int // on the link: header, frames and wireOverhead

	// The frames, in the order every packet is packed and dispatched.
	ack     AckFrame      // the ACK's ranges, snapshotted; empty = no ACK
	ctrl    []ctrlFrame   // MAX_DATA, LOSS_REPORT, PING
	streams []StreamFrame // retransmissions (WriteAt frames too), new data

	// First backing arrays of streams and ack.Ranges: the usual packet — a
	// stream frame or two, a one-range ACK — needs no other.
	inline    [2]StreamFrame
	inlineAck [1]AckRange

	deliver, done func()
}

// Scrub empties the record, keeping its frame arrays and its callbacks.
// Clearing the stream frames lets go of the payload they alias — and so does
// clearing the inline array once a packet of more frames moved them off it
// and left its first two behind — clearing from of the sender. The ACK and
// control frames hold no pointer. It assigns field by field: building a
// whole zero record costs a 300-byte copy per packet.
func (tx *txRecord) Scrub() {
	clear(tx.streams)
	if cap(tx.streams) > len(tx.inline) {
		clear(tx.inline[:])
	}
	tx.from, tx.pn, tx.size = nil, 0, 0
	tx.ack.Ranges, tx.ctrl, tx.streams = tx.ack.Ranges[:0], tx.ctrl[:0], tx.streams[:0]
}

// NewPair creates a connected client/server pair over the path. The client
// transmits on path.Up and the server on path.Down (the shaped bottleneck).
func NewPair(s *sim.Sim, path *netem.Path, clientCfg, serverCfg Config) (client, server *Conn) {
	client = newConn(s, path.Up, clientCfg, true)
	server = newConn(s, path.Down, serverCfg, false)
	client.peer = server
	server.peer = client
	client.sendLimit = server.cfg.InitialMaxData
	server.sendLimit = client.cfg.InitialMaxData
	return client, server
}

func newConn(s *sim.Sim, link *netem.Link, cfg Config, isClient bool) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		sim:       s,
		cfg:       cfg,
		link:      link,
		ctl:       cfg.Controller,
		obs:       cfg.Obs,
		streams:   make(map[uint64]*Stream),
		recvLimit: cfg.InitialMaxData,
		store:     packets.Get(s),
	}
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	c.ptoTimer = sim.NewTimer(s, c.onPTO)
	c.ackTimer = sim.NewTimer(s, func() { c.sendAckNow() })
	c.paceTimer = sim.NewTimer(s, func() {
		c.sendArmed = false
		c.trySend()
	})
	if cfg.IdleTimeout > 0 {
		c.idleTimer = sim.NewTimer(s, func() { c.Close(ErrIdleTimeout) })
		c.idleTimer.Arm(cfg.IdleTimeout)
		if isClient {
			c.keepTimer = sim.NewTimer(s, c.onKeepAlive)
			c.keepTimer.Arm(cfg.IdleTimeout / 2)
		}
	}
	return c
}

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// Sim returns the simulator the connection runs on, for layers above the
// transport that need timers (request deadlines, retry backoff).
func (c *Conn) Sim() *sim.Sim { return c.sim }

// IdleTimeout returns the connection's idle timeout, zero for the legacy
// transport. An httpsim client arms its request deadline and retries only
// for attempts over a connection with one.
func (c *Conn) IdleTimeout() sim.Time { return c.cfg.IdleTimeout }

// LastActivity returns the virtual time of the last valid packet received
// from the peer (zero if none yet). Layers above the transport use it to
// tell a dead link apart from a connection that is merely busy serving
// other streams: request deadlines only fire when the whole connection has
// gone quiet, not when one request is queued behind another transfer.
func (c *Conn) LastActivity() sim.Time { return c.lastRecv }

// RTT returns the connection's RTT estimator.
func (c *Conn) RTT() *cc.RTTEstimator { return &c.rtt }

// Controller exposes the congestion controller (read-only use).
func (c *Conn) Controller() cc.Controller { return c.ctl }

// OnStream registers the callback invoked when the peer opens a stream.
func (c *Conn) OnStream(fn func(*Stream)) { c.onStream = fn }

// OnClose registers the callback invoked once when the connection closes,
// with the close reason. Registered after close, it fires immediately.
func (c *Conn) OnClose(fn func(error)) {
	c.onClose = fn
	if c.closed && fn != nil {
		fn(c.closeErr)
	}
}

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool { return c.closed }

// Err returns the close reason, or nil while the connection is open.
func (c *Conn) Err() error { return c.closeErr }

// Close tears the connection down: every timer stops, queued and in-flight
// data is released, and no further events are scheduled — a closed
// connection is inert, so a simulation over a dead link drains instead of
// re-arming probe timers forever. The reason (ErrIdleTimeout, ErrClosed,
// ...) is reported to the OnClose callback. Close is idempotent and purely
// local: the peer learns of it only through its own idle timeout, as with a
// real endpoint that vanished.
func (c *Conn) Close(reason error) {
	if c.closed {
		return
	}
	if reason == nil {
		reason = ErrClosed
	}
	c.closed = true
	c.closeErr = reason
	c.obs.Inc(obs.CConnCloses)
	c.obs.Event(obs.EvConnClosed, closeReasonCode(reason), 0, 0)
	c.ptoTimer.Stop()
	c.ackTimer.Stop()
	c.paceTimer.Stop()
	if c.idleTimer != nil {
		c.idleTimer.Stop()
	}
	if c.keepTimer != nil {
		c.keepTimer.Stop()
	}
	for _, sp := range c.sentQ.live() {
		c.store.sent.Put(sp)
	}
	c.sentQ, c.ctrlQ, c.retransmit, c.active = fifo[*sentPacket]{}, fifo[ctrlFrame]{}, fifo[*StreamFrame]{}, fifo[*Stream]{}
	c.ackPending = false
	if c.onClose != nil {
		c.onClose(reason)
	}
}

// closeReasonCode maps a close reason to its telemetry code.
func closeReasonCode(reason error) int64 {
	switch reason {
	case ErrIdleTimeout:
		return obs.ReasonIdleTimeout
	case ErrClosed:
		return obs.ReasonClosed
	default:
		return obs.ReasonOther
	}
}

// onKeepAlive sends a PING when the send side has been quiet for half the
// idle timeout, so the peer's idle timer (and, via the elicited ACK, our
// own) keeps getting refreshed across application-level silences.
func (c *Conn) onKeepAlive() {
	if c.closed {
		return
	}
	interval := c.cfg.IdleTimeout / 2
	if c.sim.Now()-c.lastAckElic >= interval && c.sentQ.len() == 0 {
		c.ctrlQ.push(ctrlFrame{kind: frameTypePing})
		c.trySend()
	}
	c.keepTimer.Arm(interval)
}

// OpenStream opens a new locally initiated stream.
func (c *Conn) OpenStream(unreliable bool) *Stream {
	s := c.newStream(c.nextStreamID, unreliable)
	c.nextStreamID += 2
	return s
}

// newStream registers a stream of c, taken from the store.
func (c *Conn) newStream(id uint64, unreliable bool) *Stream {
	s := c.store.streams.Get()
	s.conn, s.id, s.unreliable = c, id, unreliable
	c.streams[id] = s
	return s
}

func (c *Conn) markActive(s *Stream) {
	if !slices.Contains(c.active.live(), s) {
		c.active.push(s)
	}
	c.trySend()
}

// --- packet storage ---

// getTx returns an empty packet record sent by c. Its netem.Datagram
// callbacks are bound once, when the store first hands it out; the record
// goes back to the store after the last delivery (the receive path retains
// nothing of one), or as soon as the link drops the datagram.
func (c *Conn) getTx() *txRecord {
	tx := c.store.tx.Get()
	if tx.deliver == nil {
		tx.streams, tx.ack.Ranges = tx.inline[:0], tx.inlineAck[:0]
		tx.deliver = func() { tx.from.peer.receive(tx) }
		tx.done = func() { tx.from.store.tx.Put(tx) }
	}
	tx.from = c
	return tx
}

// --- send path ---

// trySend drains as much pending data as congestion control and pacing
// allow, then arms the pacing timer if blocked on time.
func (c *Conn) trySend() {
	for {
		if c.closed || !c.hasPending() {
			return
		}
		now := c.sim.Now()
		if c.nextSendAt > now && c.hasAckElicitingPending() {
			if !c.sendArmed {
				c.sendArmed = true
				c.paceTimer.ArmAt(c.nextSendAt)
			}
			// ACK-only packets are not paced.
			if c.ackPending && c.ackElicCount >= 2 {
				c.sendAckNow()
			}
			return
		}
		if !c.sendOnePacket() {
			return
		}
	}
}

func (c *Conn) hasPending() bool {
	return c.ackPending || c.hasAckElicitingPending()
}

func (c *Conn) hasAckElicitingPending() bool {
	if c.ctrlQ.len() > 0 || c.retransmit.len() > 0 {
		return true
	}
	for _, s := range c.active.live() {
		if s.pendingSendBytes() > 0 {
			return true
		}
	}
	return false
}

// sendOnePacket assembles and transmits one packet; it returns false when
// nothing was sent (no data, or blocked by congestion control).
func (c *Conn) sendOnePacket() bool {
	now := c.sim.Now()
	canSendData := c.ctl.CanSend(mtu)
	budget := maxFrameBytes

	tx := c.getTx()
	sp := c.store.sent.Get()
	sp.pn = c.nextPN
	sp.sentAt = now

	if c.ackPending {
		if n := c.buildAck(&tx.ack); n <= budget {
			budget -= n
			c.clearAckState()
		} else {
			tx.ack.Ranges = tx.ack.Ranges[:0]
		}
	}

	if canSendData {
		// Control frames, as many as fit.
		for c.ctrlQ.len() > 0 {
			f := c.ctrlQ.front()
			n := f.frame().wireSize()
			if n > budget {
				break
			}
			tx.ctrl = append(tx.ctrl, *f)
			sp.ctrlFrames = append(sp.ctrlFrames, *f)
			c.ctrlQ.pop()
			budget -= n
		}
		// Retransmissions: lost reliable stream data, the FINs of lost
		// unreliable frames, and WriteAt's selective retransmissions.
		for c.retransmit.len() > 0 && budget > 64 {
			f := *c.retransmit.front()
			if f.wireSize() <= budget {
				c.retransmit.pop()
			} else {
				// Split: send a prefix now, keep the suffix queued.
				avail := budget - streamFrameOverhead(f.StreamID, f.Offset, f.Len())
				if avail <= 0 {
					break
				}
				head := c.store.frames.Get()
				f.cutFront(head, avail)
				f = head
			}
			tx.streams = append(tx.streams, *f) // a copy; the payload is shared
			budget -= f.wireSize()
			sp.streamFrames = append(sp.streamFrames, f)
			if f.Unreliable {
				c.stats.UnreliableRewrite += uint64(f.Len())
			} else {
				c.stats.RetransmitBytes += uint64(f.Len())
				c.obs.Count(obs.CRetransmitBytes, uint64(f.Len()))
			}
		}
		// New stream data, FIFO across active streams.
		for c.active.len() > 0 && budget > 64 {
			s := *c.active.front()
			if s.pendingSendBytes() == 0 {
				c.active.pop()
				continue
			}
			if c.sentData >= c.sendLimit {
				break // connection flow control blocked
			}
			maxData := budget - streamFrameOverhead(s.id, s.sendBase, budget)
			if fc := int(c.sendLimit - c.sentData); maxData > fc {
				maxData = fc
			}
			f := s.nextFrame(maxData)
			if f == nil {
				break
			}
			tx.streams = append(tx.streams, *f)
			budget -= f.wireSize()
			sp.streamFrames = append(sp.streamFrames, f)
			c.sentData += uint64(f.Len())
			c.stats.StreamBytesSent += uint64(f.Len())
			c.obs.Count(obs.CStreamBytesSent, uint64(f.Len()))
		}
	}

	if budget == maxFrameBytes { // no frame taken
		c.store.tx.Put(tx)
		c.store.sent.Put(sp)
		return false
	}
	c.seal(tx, maxFrameBytes-budget)
	wireSize := tx.size
	sp.size = wireSize
	// Everything but the leading ACK is tracked on sp and elicits an ACK.
	sp.ackEliciting = len(sp.streamFrames)+len(sp.ctrlFrames) > 0

	if sp.ackEliciting {
		c.sentQ.push(sp)
		c.elicSent++
		c.elicBytes += uint64(wireSize)
		c.ctl.OnPacketSent(now, wireSize)
		c.lastAckElic = now
		c.armPTO()
		// Pacing: space packets at ~1.25× the window rate.
		rate := 1.25 * float64(c.ctl.Window()) / c.rtt.SmoothedRTT().Seconds()
		gap := sim.Time(float64(wireSize) / rate * float64(time.Second))
		base := c.nextSendAt
		if base < now {
			base = now
		}
		c.nextSendAt = base + gap
	} else {
		// Nothing tracks a non-eliciting (ACK-only) packet; recycle it.
		c.store.sent.Put(sp)
	}
	c.transmit(tx)
	return true
}

// seal numbers and counts the packet in tx, whose frames occupy frameBytes on
// the wire — the sum of their wireSize(), so the size the link charges is the
// size the packet budget was spent in. The caller finishes its bookkeeping,
// then hands the record to transmit.
func (c *Conn) seal(tx *txRecord, frameBytes int) {
	tx.pn = c.nextPN
	c.nextPN++
	size := 1 + varintLen(tx.pn) + frameBytes
	tx.size = size + wireOverhead
	c.stats.PacketsSent++
	c.stats.BytesSent += uint64(size)
	c.obs.Inc(obs.CPacketsSent)
	c.obs.Count(obs.CBytesSent, uint64(size))
}

// transmit offers a sealed packet to the link at its full wire size.
func (c *Conn) transmit(tx *txRecord) {
	if chk := c.sim.Checker(); chk.Enabled() {
		if err := tx.wireRoundTrip(); err != nil {
			chk.Failf(invariant.QuicWireRoundtrip, "packet %d: %v", tx.pn, err)
		}
	}
	if !c.link.Send(netem.Datagram{Size: tx.size, Deliver: tx.deliver, Done: tx.done}) {
		c.store.tx.Put(tx) // dropped at the queue: reclaim immediately
	}
}

// wireRoundTrip is the quic.wire-roundtrip invariant, the codec's one caller
// outside tests: the record's frames, encoded, occupy exactly the size the
// link is charged, and decode to exactly what the peer is handed — kind,
// header fields, payload bytes, ACK ranges.
func (tx *txRecord) wireRoundTrip() error {
	sent := Packet{Number: tx.pn}
	if len(tx.ack.Ranges) > 0 {
		sent.Frames = append(sent.Frames, &tx.ack)
	}
	for i := range tx.ctrl {
		sent.Frames = append(sent.Frames, tx.ctrl[i].frame())
	}
	elided := 0
	for i := range tx.streams {
		sent.Frames = append(sent.Frames, &tx.streams[i])
		elided += tx.streams[i].Elided
	}
	enc := sent.Encode()
	if n := len(enc) + elided + wireOverhead; n != tx.size {
		return fmt.Errorf("%d B on the wire (%d encoded, %d elided, %d overhead), sent as %d B", n, len(enc), elided, wireOverhead, tx.size)
	}
	if got, err := DecodePacket(enc); err != nil || !reflect.DeepEqual(got, &sent) {
		return fmt.Errorf("ACK %v, control frames %+v and stream frames %+v, encoded as %x, decode to something else (%v)", tx.ack.Ranges, tx.ctrl, tx.streams, enc, err)
	}
	return nil
}

// buildAck copies the ACK snapshot into f — the received packet-number
// history as ranges, largest first, capped at maxAckRanges — and returns
// f.wireSize(). recordArrival keeps the snapshot and its size current. A
// history stays at a few ranges (nothing lost toward this side) or grows to
// the cap, so a record's storage comes in those two sizes rather than a
// doubling at a time.
func (c *Conn) buildAck(f *AckFrame) (wireSize int) {
	if need := len(c.ack); cap(f.Ranges) < need {
		n := 4
		if need > 4 {
			n = maxAckRanges
		}
		f.Ranges = make([]AckRange, 0, n)
	}
	f.Ranges = append(f.Ranges[:0], c.ack...)
	return 1 + varintLen(uint64(len(c.ack))) + c.ackBytes
}

// recordArrival adds packet pn to the received history and keeps the ACK
// snapshot current; nothing else writes recvdPNs. An arrival that extends
// the top run — every packet of a clean path — moves entry 0's Last; any
// other — a new top run past a loss, a late fill, a duplicate — rebuilds the
// snapshot from the history's top runs, at most maxAckRanges of them.
func (c *Conn) recordArrival(pn uint64) {
	c.recvdPNs.Add(pn, pn+1)
	if len(c.ack) > 0 && pn == c.ack[0].Last+1 {
		c.ackBytes += varintLen(pn) - varintLen(c.ack[0].Last)
		c.ack[0].Last = pn
		return
	}
	if c.ack == nil {
		c.ack = c.store.acks.Get()[:0]
	}
	rs := c.recvdPNs.Ranges()
	c.ack, c.ackBytes = c.ack[:0], 0
	for i := len(rs) - 1; i >= 0 && len(c.ack) < maxAckRanges; i-- {
		r := AckRange{First: rs[i].Start, Last: rs[i].End - 1}
		c.ack = append(c.ack, r)
		c.ackBytes += varintLen(r.First) + varintLen(r.Last)
	}
}

func (c *Conn) clearAckState() {
	c.ackPending = false
	c.ackElicCount = 0
	c.ackTimer.Stop()
}

func (c *Conn) sendAckNow() {
	if !c.ackPending {
		return
	}
	tx := c.getTx()
	n := c.buildAck(&tx.ack)
	c.clearAckState()
	c.seal(tx, n)
	c.transmit(tx)
}

// --- receive path ---

// receive takes in one delivered packet and dispatches its frames, the ACK
// first, as the sender packed them. The record stays the sender's: nothing
// here writes to it or keeps a pointer into it, so a duplicated delivery
// finds it unchanged. Real stream payload reaches the application as the
// sender's own bytes, elided payload as a length; steady-state receiving
// does not allocate or copy.
func (c *Conn) receive(p *txRecord) {
	if c.closed {
		return // packets arriving after close fall on the floor
	}
	c.stats.PacketsReceived++
	c.obs.Inc(obs.CPacketsReceived)
	c.recordArrival(p.pn)
	c.lastRecv = c.sim.Now()
	if c.idleTimer != nil {
		c.idleTimer.Arm(c.cfg.IdleTimeout) // peer activity: push back teardown
	}

	if len(p.ack.Ranges) > 0 {
		c.onAck(&p.ack)
	}
	for i := range p.ctrl {
		switch fr := &p.ctrl[i]; fr.kind {
		case frameTypeMaxData:
			if v := fr.maxData.Max; v > c.sendLimit {
				c.sendLimit = v
			}
		case frameTypeLossReport:
			f := &fr.loss
			c.obs.Count(obs.CLossReportedBytes, f.Length)
			c.obs.Event(obs.EvLossReport, int64(f.StreamID), int64(f.Offset), int64(f.Length))
			if s := c.streams[f.StreamID]; s != nil {
				s.handleLossReport(f)
			}
		}
	}
	for i := range p.streams {
		c.onStreamFrame(&p.streams[i])
	}

	if len(p.ctrl)+len(p.streams) > 0 { // anything but an ACK elicits one
		c.ackPending = true
		c.ackElicCount++
		if c.ackElicCount >= 2 {
			c.sendAckNow()
		} else if !c.ackTimer.Armed() {
			c.ackTimer.Arm(25 * time.Millisecond)
		}
	}
	c.trySend()
}

func (c *Conn) onStreamFrame(f *StreamFrame) {
	s := c.streams[f.StreamID]
	if s == nil {
		// Peer-initiated stream: register it and notify the application
		// before delivering data so callbacks are in place.
		s = c.newStream(f.StreamID, f.Unreliable)
		if c.onStream != nil {
			c.onStream(s)
		}
	}
	c.recvData += s.handleData(f)
	// Replenish connection flow control once half the window is consumed.
	if c.recvLimit-c.recvData < c.cfg.InitialMaxData/2 {
		c.recvLimit = c.recvData + c.cfg.InitialMaxData
		c.ctrlQ.push(ctrlFrame{kind: frameTypeMaxData, maxData: MaxDataFrame{Max: c.recvLimit}})
	}
}

// onAck processes an ACK by merging its ranges (descending, as buildAck
// emits them) against the in-flight queue (ascending by packet number):
// one pass in O(scanned + ranges), where the scan stops at the largest
// acknowledged packet. Processing order is ascending packet number by
// construction — no map iteration, no sorting.
func (c *Conn) onAck(f *AckFrame) {
	now := c.sim.Now()
	if len(f.Ranges) == 0 {
		return
	}
	largest := f.Ranges[0].Last
	if !c.anyAcked || largest > c.largestAcked {
		c.largestAcked = largest
		c.anyAcked = true
	}

	q := &c.sentQ
	newlyAcked := c.ackScratch[:0]
	i := q.head
	// Walk ranges smallest-first, from the lowest that can still cover the
	// oldest packet in flight — found from the top: a long history lies below.
	j := 0
	for i < len(q.items) && j+1 < len(f.Ranges) && f.Ranges[j+1].Last >= q.items[i].pn {
		j++
	}
	w := q.head // survivors below the frontier compact toward the head
	for ; i < len(q.items); i++ {
		sp := q.items[i]
		if sp.pn > largest {
			break
		}
		for j >= 0 && f.Ranges[j].Last < sp.pn {
			j--
		}
		if j >= 0 && f.Ranges[j].First <= sp.pn {
			newlyAcked = append(newlyAcked, sp)
		} else {
			q.items[w] = sp
			w++
		}
	}
	if len(newlyAcked) > 0 {
		// Slide the surviving scanned packets up against the unscanned
		// tail, so the live window stays contiguous.
		survivors := w - q.head
		newHead := i - survivors
		if survivors > 0 && newHead != q.head {
			copy(q.items[newHead:i], q.items[q.head:w])
		}
		q.dropPrefix(newHead - q.head)

		// RTT sample: exactly once per ACK that newly acknowledges the
		// largest packet, taken before the congestion-controller callbacks.
		if last := newlyAcked[len(newlyAcked)-1]; last.pn == largest {
			c.rtt.OnSample(now - last.sentAt)
			c.obs.Observe(obs.HRTTMs, int64((now-last.sentAt)/time.Millisecond))
		}
		for _, sp := range newlyAcked {
			c.ackedPkts++
			c.ackedBytes += uint64(sp.size)
			c.ctl.OnAck(now, sp.size, now-sp.sentAt)
		}
		c.ptoCount = 0
		for _, sp := range newlyAcked {
			for _, sf := range sp.streamFrames {
				c.store.frames.Put(sf)
			}
			c.store.sent.Put(sp)
		}
	}
	c.ackScratch = newlyAcked[:0]

	c.detectLosses(now)
	c.checkConservation()
	c.armPTO()
	c.trySend()
}

// checkConservation asserts, with a checker armed on the sim, that every
// ack-eliciting packet (and byte) ever pushed into the in-flight queue is
// accounted for exactly once: acknowledged, declared lost, or still in
// flight. The in-flight side is recomputed from the queue itself, so a
// requeue path that drops or duplicates a packet without bookkeeping is
// caught at the next ACK.
func (c *Conn) checkConservation() {
	chk := c.sim.Checker()
	if !chk.Enabled() || c.closed {
		return
	}
	if inflight := uint64(c.sentQ.len()); c.elicSent != c.ackedPkts+c.stats.PacketsDeclLost+inflight {
		chk.Failf(invariant.QuicPacketConservation,
			"sent %d != acked %d + lost %d + inflight %d",
			c.elicSent, c.ackedPkts, c.stats.PacketsDeclLost, inflight)
	}
	var infBytes uint64
	for _, sp := range c.sentQ.live() {
		infBytes += uint64(sp.size)
	}
	if c.elicBytes != c.ackedBytes+c.lostBytes+infBytes {
		chk.Failf(invariant.QuicByteConservation,
			"sent %d B != acked %d B + lost %d B + inflight %d B",
			c.elicBytes, c.ackedBytes, c.lostBytes, infBytes)
	}
}

// detectLosses declares packets lost by packet threshold (3) and time
// threshold (9/8 smoothed RTT behind the largest acknowledged packet).
//
// Both thresholds are monotone along the queue — packet numbers ascend and
// send times never decrease — so the lost packets always form a prefix of
// the in-flight queue: the walk stops at the first packet neither
// threshold condemns.
func (c *Conn) detectLosses(now sim.Time) {
	if !c.anyAcked || c.sentQ.len() == 0 {
		return
	}
	base := c.rtt.SmoothedRTT()
	if l := c.rtt.LatestRTT(); l > base {
		base = l
	}
	timeThresh := base*9/8 + 10*time.Millisecond
	q := &c.sentQ
	lost := 0
	for _, sp := range q.live() {
		if sp.pn >= c.largestAcked ||
			(c.largestAcked-sp.pn < 3 && now-sp.sentAt <= timeThresh) {
			break
		}
		lost++
	}
	if lost == 0 {
		return
	}
	for _, sp := range q.live()[:lost] {
		c.stats.PacketsDeclLost++
		c.lostBytes += uint64(sp.size)
		c.obs.Inc(obs.CPacketsLost)
		isNew := sp.sentAt >= c.recoveryStart
		if isNew {
			c.recoveryStart = now
		}
		c.ctl.OnLoss(now, sp.size, isNew)
		c.requeueLost(sp)
	}
	q.dropPrefix(lost)
}

// requeueLost recovers the contents of a lost packet: reliable stream data
// is retransmitted, unreliable stream data becomes a LOSS_REPORT, and
// control frames are requeued. The emptied sentPacket (and any frame no
// queue references anymore) returns to the connection's freelists.
func (c *Conn) requeueLost(sp *sentPacket) {
	for _, f := range sp.streamFrames {
		if f.Unreliable {
			c.stats.UnreliableLost += uint64(f.Len())
			c.obs.Count(obs.CUnreliableLostBytes, uint64(f.Len()))
			c.ctrlQ.push(ctrlFrame{kind: frameTypeLossReport, loss: LossReportFrame{
				StreamID: f.StreamID,
				Offset:   f.Offset,
				Length:   uint64(f.Len()),
			}})
			if f.Fin {
				// The FIN must still reach the peer: resend an empty FIN
				// frame reliably so the stream's final size is known.
				fin := c.store.frames.Get()
				fin.StreamID = f.StreamID
				fin.Offset = f.Offset + uint64(f.Len())
				fin.Fin, fin.Unreliable = true, true
				c.retransmit.push(fin)
			}
			c.store.frames.Put(f) // never retransmitted: the frame is done
		} else {
			c.retransmit.push(f)
		}
	}
	for _, f := range sp.ctrlFrames {
		c.ctrlQ.push(f)
	}
	c.store.sent.Put(sp)
}

// --- PTO ---

func (c *Conn) armPTO() {
	if c.closed || c.sentQ.len() == 0 {
		c.ptoTimer.Stop()
		return
	}
	exp := c.ptoCount
	if c.cfg.IdleTimeout > 0 && exp > ptoBackoffCap {
		exp = ptoBackoffCap
	}
	backoff := sim.Time(1) << uint(exp)
	c.ptoTimer.ArmAt(c.lastAckElic + c.rtt.PTO()*backoff)
}

func (c *Conn) onPTO() {
	if c.closed || c.sentQ.len() == 0 {
		return
	}
	c.ptoCount++
	c.stats.PTOCount++
	c.obs.Inc(obs.CPTOs)
	now := c.sim.Now()
	// Persistent congestion at 3 consecutive PTOs. The legacy transport (no
	// idle timeout) resets the backoff each time, retrying the whole window
	// at full tempo; with an idle timeout it is declared once per streak and
	// the streak keeps backing off (up to ptoBackoffCap), so a dead link is
	// probed at a bounded, non-collapsing cadence until traffic or the idle
	// timeout ends it.
	capped := c.cfg.IdleTimeout > 0
	if c.ptoCount == 3 || (!capped && c.ptoCount > 3) {
		// Declare everything in flight lost and collapse the window. The
		// queue is already in ascending packet-number order.
		q := &c.sentQ
		for _, sp := range q.live() {
			c.stats.PacketsDeclLost++
			c.lostBytes += uint64(sp.size)
			c.obs.Inc(obs.CPacketsLost)
			c.requeueLost(sp)
		}
		q.dropPrefix(q.len())
		c.ctl.OnRetransmissionTimeout(now)
		c.recoveryStart = now
		if !capped {
			c.ptoCount = 0
		}
		c.nextSendAt = 0
		c.trySend()
		if capped {
			// The streak continues: keep probing even if trySend was
			// blocked, so link recovery is still detected.
			c.armPTO()
		}
		return
	}
	// Send a probe to elicit an ACK that unblocks threshold loss detection.
	tx := c.getTx()
	tx.ctrl = append(tx.ctrl, ctrlFrame{kind: frameTypePing})
	sp := c.store.sent.Get()
	sp.pn = c.nextPN
	c.seal(tx, PingFrame{}.wireSize())
	sp.size = tx.size
	sp.sentAt = now
	sp.ackEliciting = true
	c.sentQ.push(sp)
	c.elicSent++
	c.elicBytes += uint64(sp.size)
	c.lastAckElic = now
	c.transmit(tx)
	c.armPTO()
}

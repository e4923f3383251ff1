package quic

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"time"

	"voxel/internal/cc"
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
	// peer for this long. Zero disables idle teardown (legacy behavior:
	// a dead link leaves the connection probing forever).
	IdleTimeout sim.Time
	// KeepAlive, with IdleTimeout set, sends a PING at half the idle
	// timeout whenever the connection is otherwise quiet, so an idle but
	// healthy connection is not torn down (e.g. while the player's buffer
	// is full and no requests are outstanding).
	KeepAlive bool
	// PTOBackoffCap bounds the PTO backoff exponent so probe spacing
	// plateaus at PTO<<cap instead of doubling without bound — during a
	// multi-second blackout the connection keeps probing at a bounded
	// period and detects link recovery quickly. Zero keeps the legacy
	// schedule (persistent congestion at 3 consecutive PTOs resets the
	// backoff); with a cap, persistent congestion is declared once per
	// streak and the exponent keeps growing up to the cap.
	PTOBackoffCap int

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

type rewrite struct {
	stream *Stream
	offset uint64
	data   []byte
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
	sentQ         sentQueue // in-flight ack-eliciting packets, ascending pn
	largestAcked  uint64
	anyAcked      bool
	recoveryStart sim.Time
	ptoTimer      *sim.Timer
	ptoCount      int
	lastAckElic   sim.Time

	// receiving
	recvdPNs     RangeSet
	ackPending   bool
	ackElicCount int
	ackTimer     *sim.Timer

	// streams
	streams      map[uint64]*Stream
	nextStreamID uint64
	onStream     func(*Stream)
	active       fifo[*Stream] // streams with pending new data

	// frame queues
	ctrlQ      fifo[ctrlFrame] // reliable: requeued on loss
	retransmit fifo[*StreamFrame]
	rewrites   fifo[rewrite]

	// flow control
	sendLimit    uint64 // peer's MAX_DATA
	sentData     uint64 // new stream payload bytes sent
	recvLimit    uint64 // what we advertised
	recvData     uint64 // stream payload bytes received (new bytes)
	sendBlockedF bool

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
	keepTimer *sim.Timer // armed iff cfg.KeepAlive && cfg.IdleTimeout > 0

	// scratch and freelists for the zero-allocation fast path. Everything
	// here is per-connection and single-threaded (one simulation runs on
	// one goroutine), so reuse needs no synchronization.
	spFree     []*sentPacket  // sentPacket freelist
	sfFree     []*StreamFrame // StreamFrame freelist (send side)
	txFree     []*txRecord    // packet records, returned when the link is done with them
	ackScratch []*sentPacket  // newly-acked scratch for onAck
	gapScratch []ByteRange    // AppendGaps scratch for the streams' receive side
}

// txRecord is one packet in flight (DESIGN.md §5): its number, its size on
// the link and its frames, which the peer's receive is handed as they are —
// nothing is encoded. The frames are copies: the sender cuts, recycles and
// requeues its own StreamFrames (retransmit split, ACK, loss) while a delayed
// or duplicated copy of the packet is still inside the link, so a record
// never points at one. Payload is aliased, not copied — send runs are never
// written after Write/WriteShared. The record is read-only from transmit
// until the link's Done. Its two netem.Datagram callbacks are bound once,
// when the pooled record is first made, so sending allocates nothing.
type txRecord struct {
	pn   uint64
	size int // on the link: header, frames and wireOverhead

	// The frames, in the order every packet is packed and dispatched.
	ack     AckFrame      // the ACK's ranges, snapshotted; empty = no ACK
	ctrl    []ctrlFrame   // MAX_DATA, LOSS_REPORT, PING
	streams []StreamFrame // retransmissions, rewrites, new data

	// First backing arrays of streams and ack.Ranges: the usual packet — a
	// stream frame or two, a one-range ACK — needs no other.
	inline    [2]StreamFrame
	inlineAck [1]AckRange

	deliver, done func()
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
		if cfg.KeepAlive {
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
	for i := c.sentQ.head; i < len(c.sentQ.pk); i++ {
		c.releaseSent(c.sentQ.pk[i])
	}
	c.sentQ.reset()
	c.ctrlQ, c.retransmit = fifo[ctrlFrame]{}, fifo[*StreamFrame]{}
	c.rewrites, c.active = fifo[rewrite]{}, fifo[*Stream]{}
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
	if c.sim.Now()-c.lastAckElic >= interval && c.sentQ.empty() {
		c.ctrlQ.push(ctrlFrame{kind: frameTypePing})
		c.trySend()
	}
	c.keepTimer.Arm(interval)
}

// OpenStream opens a new locally initiated stream.
func (c *Conn) OpenStream(unreliable bool) *Stream {
	s := &Stream{conn: c, id: c.nextStreamID, unreliable: unreliable}
	c.nextStreamID += 2
	c.streams[s.id] = s
	return s
}

func (c *Conn) markActive(s *Stream) {
	if !slices.Contains(c.active.live(), s) {
		c.active.push(s)
	}
	c.trySend()
}

func (c *Conn) queueUnreliableRewrite(s *Stream, offset uint64, data []byte) {
	c.rewrites.push(rewrite{stream: s, offset: offset, data: data})
	c.trySend()
}

// --- pools ---

// allocSent returns a clean sentPacket, reusing freed ones. The frame
// slices keep their capacity across reuse.
func (c *Conn) allocSent() *sentPacket {
	if n := len(c.spFree); n > 0 {
		sp := c.spFree[n-1]
		c.spFree = c.spFree[:n-1]
		return sp
	}
	return &sentPacket{}
}

// releaseSent recycles a sentPacket whose frames have already been handed
// off or freed.
func (c *Conn) releaseSent(sp *sentPacket) {
	clear(sp.streamFrames)
	*sp = sentPacket{streamFrames: sp.streamFrames[:0], ctrlFrames: sp.ctrlFrames[:0]}
	c.spFree = append(c.spFree, sp)
}

// allocFrame returns a zeroed StreamFrame from the send-side freelist.
func (c *Conn) allocFrame() *StreamFrame {
	if n := len(c.sfFree); n > 0 {
		f := c.sfFree[n-1]
		c.sfFree = c.sfFree[:n-1]
		*f = StreamFrame{}
		return f
	}
	return &StreamFrame{}
}

// freeFrame recycles a StreamFrame that no queue references anymore.
func (c *Conn) freeFrame(f *StreamFrame) {
	f.Data = nil
	c.sfFree = append(c.sfFree, f)
}

// getTx returns an empty packet record from the pool.
func (c *Conn) getTx() *txRecord {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree = c.txFree[:n-1]
		return tx
	}
	tx := &txRecord{}
	tx.streams, tx.ack.Ranges = tx.inline[:0], tx.inlineAck[:0]
	tx.deliver = func() { c.peer.receive(tx) }
	tx.done = func() { c.putTx(tx) }
	return tx
}

// putTx empties a packet record into the pool. Records come back after the
// last delivery (the receive path retains nothing of one), or immediately
// when the link dropped the datagram. Clearing the stream frames lets go of
// the payload they alias.
func (c *Conn) putTx(tx *txRecord) {
	clear(tx.streams)
	tx.ack.Ranges, tx.ctrl, tx.streams = tx.ack.Ranges[:0], tx.ctrl[:0], tx.streams[:0]
	c.txFree = append(c.txFree, tx)
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
	if c.ctrlQ.len() > 0 || c.retransmit.len() > 0 || c.rewrites.len() > 0 {
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
	sp := c.allocSent()
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
		// Retransmissions of reliable stream data.
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
				head := c.allocFrame()
				f.cutFront(head, avail)
				f = head
			}
			tx.streams = append(tx.streams, *f) // a copy; the payload is shared
			budget -= f.wireSize()
			sp.streamFrames = append(sp.streamFrames, f)
			c.stats.RetransmitBytes += uint64(f.Len())
			c.obs.Count(obs.CRetransmitBytes, uint64(f.Len()))
		}
		// Application-level rewrites on unreliable streams (selective retx).
		for c.rewrites.len() > 0 && budget > 64 {
			rw := c.rewrites.front()
			hdr := streamFrameOverhead(rw.stream.id, rw.offset, len(rw.data))
			n := len(rw.data)
			if hdr+n > budget {
				n = budget - hdr
			}
			if n <= 0 {
				break
			}
			f := c.allocFrame()
			f.StreamID, f.Offset = rw.stream.id, rw.offset
			f.Data, f.Unreliable = rw.data[:n], true
			rw.offset += uint64(n)
			rw.data = rw.data[n:]
			if len(rw.data) == 0 {
				c.rewrites.pop()
			}
			tx.streams = append(tx.streams, *f)
			budget -= f.wireSize()
			sp.streamFrames = append(sp.streamFrames, f)
			c.stats.UnreliableRewrite += uint64(len(f.Data))
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
		c.putTx(tx)
		c.releaseSent(sp)
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
		c.releaseSent(sp)
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
			chk.Failf("quic", "quic.wire-roundtrip", "packet %d: %v", tx.pn, err)
		}
	}
	if !c.link.Send(netem.Datagram{Size: tx.size, Deliver: tx.deliver, Done: tx.done}) {
		c.putTx(tx) // dropped at the queue: reclaim immediately
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

// buildAck snapshots the received packet-number history into f as ACK
// ranges — largest first, capped at maxAckRanges — and returns f.wireSize(),
// summed on the way. A history stays at a few ranges (nothing lost toward
// this side) or grows to the cap, so storage comes in those two sizes rather
// than a doubling at a time.
func (c *Conn) buildAck(f *AckFrame) (wireSize int) {
	rs := c.recvdPNs.Ranges()
	if need := min(len(rs), maxAckRanges); cap(f.Ranges) < need {
		n := 4
		if need > 4 {
			n = maxAckRanges
		}
		f.Ranges = make([]AckRange, 0, n)
	}
	f.Ranges = f.Ranges[:0]
	for i := len(rs) - 1; i >= 0 && len(f.Ranges) < maxAckRanges; i-- {
		r := AckRange{First: rs[i].Start, Last: rs[i].End - 1}
		f.Ranges = append(f.Ranges, r)
		wireSize += varintLen(r.First) + varintLen(r.Last)
	}
	return 1 + varintLen(uint64(len(f.Ranges))) + wireSize
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
	c.recvdPNs.Add(p.pn, p.pn+1)
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
		s = &Stream{conn: c, id: f.StreamID, unreliable: f.Unreliable}
		c.streams[f.StreamID] = s
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
	for i < len(q.pk) && j+1 < len(f.Ranges) && f.Ranges[j+1].Last >= q.pk[i].pn {
		j++
	}
	w := q.head // survivors below the frontier compact toward the head
	for ; i < len(q.pk); i++ {
		sp := q.pk[i]
		if sp.pn > largest {
			break
		}
		for j >= 0 && f.Ranges[j].Last < sp.pn {
			j--
		}
		if j >= 0 && f.Ranges[j].First <= sp.pn {
			newlyAcked = append(newlyAcked, sp)
		} else {
			q.pk[w] = sp
			w++
		}
	}
	if len(newlyAcked) > 0 {
		// Slide the surviving scanned packets up against the unscanned
		// tail, so the live window stays contiguous.
		survivors := w - q.head
		newHead := i - survivors
		if survivors > 0 && newHead != q.head {
			copy(q.pk[newHead:i], q.pk[q.head:w])
		}
		for k := q.head; k < newHead; k++ {
			q.pk[k] = nil
		}
		q.head = newHead
		q.shrink()

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
				c.freeFrame(sf)
			}
			c.releaseSent(sp)
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
	if inflight := uint64(c.sentQ.size()); c.elicSent != c.ackedPkts+c.stats.PacketsDeclLost+inflight {
		chk.Failf("quic", "quic.packet-conservation",
			"sent %d != acked %d + lost %d + inflight %d",
			c.elicSent, c.ackedPkts, c.stats.PacketsDeclLost, inflight)
	}
	var infBytes uint64
	for i := c.sentQ.head; i < len(c.sentQ.pk); i++ {
		infBytes += uint64(c.sentQ.pk[i].size)
	}
	if c.elicBytes != c.ackedBytes+c.lostBytes+infBytes {
		chk.Failf("quic", "quic.byte-conservation",
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
	if !c.anyAcked || c.sentQ.empty() {
		return
	}
	base := c.rtt.SmoothedRTT()
	if l := c.rtt.LatestRTT(); l > base {
		base = l
	}
	timeThresh := base*9/8 + 10*time.Millisecond
	q := &c.sentQ
	lost := 0
	for i := q.head; i < len(q.pk); i++ {
		sp := q.pk[i]
		if sp.pn >= c.largestAcked ||
			(c.largestAcked-sp.pn < 3 && now-sp.sentAt <= timeThresh) {
			break
		}
		lost++
	}
	if lost == 0 {
		return
	}
	for i := 0; i < lost; i++ {
		sp := q.pk[q.head+i]
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
				fin := c.allocFrame()
				fin.StreamID = f.StreamID
				fin.Offset = f.Offset + uint64(f.Len())
				fin.Fin, fin.Unreliable = true, true
				c.retransmit.push(fin)
			}
			c.freeFrame(f) // never retransmitted: the frame is done
		} else {
			c.retransmit.push(f)
		}
	}
	c.ctrlQ.push(sp.ctrlFrames...)
	c.releaseSent(sp)
}

// --- PTO ---

func (c *Conn) armPTO() {
	if c.closed || c.sentQ.empty() {
		c.ptoTimer.Stop()
		return
	}
	exp := c.ptoCount
	if cap := c.cfg.PTOBackoffCap; cap > 0 && exp > cap {
		exp = cap
	}
	backoff := sim.Time(1) << uint(exp)
	c.ptoTimer.ArmAt(c.lastAckElic + c.rtt.PTO()*backoff)
}

func (c *Conn) onPTO() {
	if c.closed || c.sentQ.empty() {
		return
	}
	c.ptoCount++
	c.stats.PTOCount++
	c.obs.Inc(obs.CPTOs)
	now := c.sim.Now()
	// Persistent congestion at 3 consecutive PTOs. Legacy (no backoff cap)
	// resets the backoff each time, retrying the whole window at full tempo;
	// with a cap, it is declared once per streak and the streak keeps
	// backing off (up to the cap), so a dead link is probed at a bounded,
	// non-collapsing cadence until traffic or the idle timeout ends it.
	if c.ptoCount == 3 || (c.cfg.PTOBackoffCap == 0 && c.ptoCount > 3) {
		// Declare everything in flight lost and collapse the window. The
		// queue is already in ascending packet-number order.
		q := &c.sentQ
		for i := q.head; i < len(q.pk); i++ {
			c.stats.PacketsDeclLost++
			c.lostBytes += uint64(q.pk[i].size)
			c.requeueLost(q.pk[i])
		}
		q.reset()
		c.ctl.OnRetransmissionTimeout(now)
		c.recoveryStart = now
		if c.cfg.PTOBackoffCap == 0 {
			c.ptoCount = 0
		}
		c.nextSendAt = 0
		c.trySend()
		if c.cfg.PTOBackoffCap > 0 {
			// The streak continues: keep probing even if trySend was
			// blocked, so link recovery is still detected.
			c.armPTO()
		}
		return
	}
	// Send a probe to elicit an ACK that unblocks threshold loss detection.
	tx := c.getTx()
	tx.ctrl = append(tx.ctrl, ctrlFrame{kind: frameTypePing})
	sp := c.allocSent()
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

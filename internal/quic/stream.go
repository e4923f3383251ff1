package quic

import "voxel/internal/invariant"

// Stream is a QUIC* stream. Reliable streams deliver every byte; unreliable
// streams (the QUIC* extension) deliver what survives the network, with
// transport-level loss reported through LOSS_REPORT frames.
//
// The API is event-driven to match the discrete-event simulator: receivers
// register callbacks instead of blocking on Read. A stream lives as long as
// its world: once the kernel is released it is scrubbed for the next world,
// so nothing may hold it longer.
type Stream struct {
	conn       *Conn
	id         uint64
	unreliable bool

	// send state. Queued bytes are a FIFO of runs: the real bytes handed to
	// Write (copied into wbuf, the stream's own write buffer) or WriteShared
	// (the caller's own), or a count of content-free bytes from WriteZeros.
	// nextFrame slices frames straight out of the head run instead of
	// re-copying, so a real run is shared read-only with the frames cut from
	// it. wbuf is only appended to within a world — a run is a full-capacity
	// subslice of it, which a later append never writes into — and is rewound
	// when the world ends (scrub), once no frame of the world is read again.
	wbuf      []byte
	sendRuns  fifo[sendRun] // runs not yet fully packetized
	sendLen   int           // total unpacketized bytes across all runs
	sendBase  uint64        // stream offset of the next byte to packetize
	finQueued bool          // CloseWrite called
	finSent   bool

	// receive state
	received   RangeSet
	lost       RangeSet // from LOSS_REPORT frames (unreliable only)
	finalKnown bool
	finalSize  uint64

	onData  func(offset, length uint64, data []byte)
	onLost  func(offset, length uint64)
	onFin   func(finalSize uint64)
	doneFin bool
}

// sendRun is one queued run of a stream's send buffer: the unpacketized
// rest of a Write (data) or of a WriteZeros (zeros), never both.
type sendRun struct {
	data  []byte
	zeros int
}

func (r *sendRun) len() int { return len(r.data) + r.zeros }

// Scrub returns s to its zero state for the kernel's next world, keeping
// only the capacity of its receive range sets, its send-run queue and its
// write buffer. The queue is cleared to capacity: a queued run aliases
// payload. The packet store calls it when the world ends; nothing else may.
func (s *Stream) Scrub() {
	runs := s.sendRuns.items
	clear(runs[:cap(runs)])
	s.received.Reset()
	s.lost.Reset()
	*s = Stream{
		wbuf:     s.wbuf[:0],
		sendRuns: fifo[sendRun]{items: runs[:0]},
		received: s.received,
		lost:     s.lost,
	}
}

// ID returns the stream ID. Client-initiated streams are even, server-
// initiated odd.
func (s *Stream) ID() uint64 { return s.id }

// Unreliable reports whether this is an unreliable (QUIC*) stream.
func (s *Stream) Unreliable() bool { return s.unreliable }

// Write queues data for transmission. The data is copied.
func (s *Stream) Write(data []byte) {
	n := len(s.wbuf)
	s.wbuf = append(s.wbuf, data...)
	s.WriteShared(s.wbuf[n:len(s.wbuf):len(s.wbuf)])
}

// WriteShared queues data without copying it: the send buffer and the
// frames cut from it alias data read-only, so the caller must never modify
// it afterwards (bytes every session serves alike, such as a manifest).
func (s *Stream) WriteShared(data []byte) {
	if s.finQueued {
		panic("quic: Write after CloseWrite")
	}
	if len(data) == 0 {
		return
	}
	s.sendRuns.push(sendRun{data: data})
	s.sendLen += len(data)
	s.conn.markActive(s)
}

// WriteZeros queues n content-free bytes — payload whose content no
// receiver reads, such as segment bodies. They are framed, paced, counted
// and lost exactly like n written bytes, but cost O(1) memory to queue and
// travel as elided frames (see StreamFrame).
func (s *Stream) WriteZeros(n int) {
	if s.finQueued {
		panic("quic: WriteZeros after CloseWrite")
	}
	if n <= 0 {
		return
	}
	if runs := s.sendRuns.live(); len(runs) > 0 && runs[len(runs)-1].data == nil {
		runs[len(runs)-1].zeros += n
	} else {
		s.sendRuns.push(sendRun{zeros: n})
	}
	s.sendLen += n
	s.conn.markActive(s)
}

// CloseWrite queues the FIN: no more data will be written.
func (s *Stream) CloseWrite() {
	if s.finQueued {
		return
	}
	s.finQueued = true
	s.conn.markActive(s)
}

// WriteAt re-queues bytes at a specific offset on an unreliable stream.
// This is the server-side primitive behind the paper's selective
// retransmission: the application re-sends ranges the client re-requested.
// The caller supplies the bytes (the server still has the object); they are
// copied into one frame on the retransmit queue, which cuts it to the packet
// budget. A lost WriteAt frame is reported, not retransmitted.
func (s *Stream) WriteAt(offset uint64, data []byte) {
	if !s.unreliable {
		panic("quic: WriteAt is only for unreliable streams")
	}
	if len(data) == 0 {
		return
	}
	c := s.conn
	f := c.store.frames.Get()
	f.StreamID, f.Offset, f.Unreliable = s.id, offset, true
	f.Data = append([]byte(nil), data...)
	c.retransmit.push(f)
	c.trySend()
}

// OnData registers the receive callback; it fires for every newly covered
// range of an arriving stream frame with the range's offset and length, and
// its bytes — nil when the sender queued the range with WriteZeros. Frames
// can arrive out of order; duplicate bytes are suppressed. data aliases the
// sender's bytes — nothing is copied between Write and here — so it is
// read-only.
func (s *Stream) OnData(fn func(offset, length uint64, data []byte)) { s.onData = fn }

// OnLost registers the loss callback for unreliable streams; it fires when
// the peer's transport gives up on a range.
func (s *Stream) OnLost(fn func(offset, length uint64)) { s.onLost = fn }

// OnFin registers the finalization callback; it fires once the FIN arrived
// and, for reliable streams, every byte is in — for unreliable streams it
// fires when every byte is either received or reported lost.
func (s *Stream) OnFin(fn func(finalSize uint64)) {
	s.onFin = fn
	s.maybeFin()
}

// Detach drops the receive callbacks of a stream whose reader is done with
// it: data and loss reports that arrive later only update coverage. The
// stream keeps a no-op fin callback, so it still finalizes once its fate is
// known, and a reliable one is still held to quic.reliable-contiguity when
// the checker is armed.
func (s *Stream) Detach() {
	s.onData, s.onLost, s.onFin = nil, nil, detachedFin
}

// detachedFin is the fin callback of a detached stream.
func detachedFin(uint64) {}

// Received returns the receive-side coverage set (read-only).
func (s *Stream) Received() *RangeSet { return &s.received }

// Lost returns the ranges reported permanently lost (read-only).
func (s *Stream) Lost() *RangeSet { return &s.lost }

// pendingSendBytes reports how much new data (plus FIN) awaits packetizing.
func (s *Stream) pendingSendBytes() int {
	n := s.sendLen
	if s.finQueued && !s.finSent {
		n++ // FIN itself needs to ride on a frame
	}
	return n
}

// nextFrame cuts up to maxData bytes of new data into a frame, or returns
// nil when nothing is pending. The cut size depends only on how much data
// is queued, never on run boundaries or on whether the bytes are real, so
// framing is identical to a flat buffer. A cut inside a zero run yields an
// elided frame; a cut inside a real run aliases it (full-capacity slice:
// appends by a holder cannot scribble on the run); only a cut spanning runs
// copies.
func (s *Stream) nextFrame(maxData int) *StreamFrame {
	if maxData <= 0 {
		return nil
	}
	n := s.sendLen
	if n == 0 && !(s.finQueued && !s.finSent) {
		return nil
	}
	if n > maxData {
		n = maxData
	}
	f := s.conn.store.frames.Get()
	if n > 0 {
		switch head := s.sendRuns.front(); {
		case head.zeros >= n:
			f.Elided = n
			head.zeros -= n
		case len(head.data) >= n:
			f.Data = head.data[:n:n]
			head.data = head.data[n:]
		default:
			f.Data = s.cutSpanning(n)
		}
		s.sendLen -= n
		if s.sendRuns.front().len() == 0 {
			s.sendRuns.pop()
		}
	}
	f.StreamID = s.id
	f.Offset = s.sendBase
	f.Unreliable = s.unreliable
	s.sendBase += uint64(n)
	if s.finQueued && s.sendLen == 0 && !s.finSent {
		f.Fin = true
		s.finSent = true
	}
	return f
}

// cutSpanning materializes a cut of n bytes that crosses run boundaries —
// in practice the one frame per response holding an HTTP head and the first
// bytes of a content-free body. Zero runs contribute the fresh buffer's
// zeros. The last run touched stays at the head, possibly empty. (Frames cut
// from a real run keep its bytes alive after the run is popped, until the
// last one is acked and freed.)
func (s *Stream) cutSpanning(n int) []byte {
	data := make([]byte, n)
	for filled := 0; ; s.sendRuns.pop() {
		head := s.sendRuns.front()
		take := n - filled
		if l := head.len(); take > l {
			take = l
		}
		if head.zeros > 0 {
			head.zeros -= take
		} else {
			copy(data[filled:], head.data[:take])
			head.data = head.data[take:]
		}
		if filled += take; filled == n {
			return data
		}
	}
}

// handleData processes an arriving stream frame on the receive side and
// returns how many of its bytes the stream had not received before.
func (s *Stream) handleData(f *StreamFrame) (newBytes uint64) {
	end := f.Offset + uint64(f.Len())
	if end > f.Offset {
		// Suppress duplicate delivery: only surface sub-ranges not yet seen.
		c := s.conn
		gaps := s.received.AppendGaps(c.gapScratch[:0], f.Offset, end)
		s.received.Add(f.Offset, end)
		for _, g := range gaps {
			newBytes += g.Len()
			if s.onData != nil {
				var data []byte
				if f.Elided == 0 {
					data = f.Data[g.Start-f.Offset : g.End-f.Offset]
				}
				s.onData(g.Start, g.Len(), data)
			}
		}
		c.gapScratch = gaps[:0]
	}
	if f.Fin && (!s.finalKnown || end > s.finalSize) {
		s.finalSize = end
		s.finalKnown = true
	}
	s.maybeFin()
	return newBytes
}

// handleLossReport records a permanent hole on an unreliable stream.
func (s *Stream) handleLossReport(f *LossReportFrame) {
	start, end := f.Offset, f.Offset+f.Length
	// Data that actually arrived (e.g. reordered past the report) wins.
	c := s.conn
	gaps := s.received.AppendGaps(c.gapScratch[:0], start, end)
	for _, g := range gaps {
		s.lost.Add(g.Start, g.End)
		if s.onLost != nil {
			s.onLost(g.Start, g.Len())
		}
	}
	c.gapScratch = gaps[:0]
	s.maybeFin()
}

// maybeFin fires the fin callback once the stream's fate is fully known.
func (s *Stream) maybeFin() {
	if s.doneFin || !s.finalKnown || s.onFin == nil {
		return
	}
	// Every byte up to finalSize must be received or (unreliable streams)
	// reported lost.
	if !CoveredBy(&s.received, &s.lost, 0, s.finalSize) {
		return
	}
	if chk := s.conn.sim.Checker(); chk.Enabled() && !s.unreliable && s.finalSize > 0 {
		// Reliable delivery must finalize as one contiguous range
		// [0, finalSize): a gap or an overshoot here means retransmission
		// lost or duplicated bytes that the application will never see.
		rs := s.received.Ranges()
		if len(rs) != 1 || rs[0].Start != 0 || rs[0].End != s.finalSize {
			chk.Failf(invariant.QuicReliableContiguity,
				"stream %d finalized with %d ranges, covered %d of %d bytes",
				s.id, len(rs), s.received.CoveredBytes(), s.finalSize)
		}
	}
	s.doneFin = true
	s.onFin(s.finalSize)
}

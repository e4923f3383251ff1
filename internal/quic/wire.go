// Package quic implements QUIC*, the paper's partially reliable QUIC
// variant (§4.2): next to ordinary reliable streams it offers unreliable
// streams whose data is congestion- and flow-controlled but never
// retransmitted by the transport. Loss on unreliable streams is detected by
// the sender's ACK machinery and reported to the receiving application
// through a reliable LOSS_REPORT frame, giving the client the "precise
// knowledge about the losses" §4.2 relies on.
//
// This file defines the wire format — a QUIC-style varint encoding of packet
// and frame headers, with stream payload whose content nobody reads (segment
// bodies) elided to a length, see StreamFrame — and with it every size the
// simulation observes: wireSize() is what the packet budget, congestion and
// flow control and the link charge. The bytes themselves are not produced on
// the trial path: both endpoints live in one process and no impairment can
// corrupt a byte, so a packet crosses the link as its frames by value
// (txRecord, conn.go). The codec runs under an armed invariant checker
// (quic.wire-roundtrip), which holds every transmitted packet to it.
package quic

import (
	"errors"
	"fmt"
)

// Varint encoding per RFC 9000 §16: the two most significant bits of the
// first byte encode the length (1, 2, 4, or 8 bytes).

const (
	maxVarint1 = 63
	maxVarint2 = 16383
	maxVarint4 = 1073741823
	maxVarint8 = 4611686018427387903
)

var errVarint = errors.New("quic: malformed varint")

// appendVarint appends the QUIC varint encoding of v to b.
func appendVarint(b []byte, v uint64) []byte {
	switch {
	case v <= maxVarint1:
		return append(b, byte(v))
	case v <= maxVarint2:
		return append(b, byte(v>>8)|0x40, byte(v))
	case v <= maxVarint4:
		return append(b, byte(v>>24)|0x80, byte(v>>16), byte(v>>8), byte(v))
	case v <= maxVarint8:
		return append(b, byte(v>>56)|0xC0, byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		panic(fmt.Sprintf("quic: varint overflow: %d", v))
	}
}

// consumeVarint decodes a varint from the front of b, returning the value
// and the remaining bytes.
func consumeVarint(b []byte) (uint64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errVarint
	}
	length := 1 << (b[0] >> 6)
	if len(b) < length {
		return 0, nil, errVarint
	}
	v := uint64(b[0] & 0x3F)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, b[length:], nil
}

func varintLen(v uint64) int {
	switch {
	case v <= maxVarint1:
		return 1
	case v <= maxVarint2:
		return 2
	case v <= maxVarint4:
		return 4
	default:
		return 8
	}
}

// Frame types. STREAM and USTREAM carry an explicit length and offset; FIN
// and ELIDED are flag bits on the type byte, FIN as in RFC 9000.
const (
	frameTypePing       = 0x01
	frameTypeAck        = 0x02
	frameTypeMaxData    = 0x10
	frameTypeStream     = 0x08 // reliable stream data; | finBit | elidedBit
	frameTypeUStream    = 0x30 // unreliable stream data; | finBit | elidedBit
	frameTypeLossReport = 0x38 // sender → receiver: unreliable range lost for good
	finBit              = 0x01
	elidedBit           = 0x02 // header only: the payload is Length content-free bytes
	streamFlagBits      = finBit | elidedBit
)

// maxElided bounds the length an elided frame may claim: no datagram is larger.
const maxElided = 1<<16 - 1

// Frame is one QUIC* frame.
type Frame interface {
	// appendTo appends the wire encoding.
	appendTo(b []byte) []byte
	// wireSize returns the size on the wire in bytes; it exceeds the
	// appendTo length by the payload an elided stream frame leaves out.
	wireSize() int
}

// PingFrame elicits an ACK; used as a PTO probe.
type PingFrame struct{}

func (PingFrame) appendTo(b []byte) []byte { return append(b, frameTypePing) }
func (PingFrame) wireSize() int            { return 1 }

// AckRange is a closed interval of acknowledged packet numbers.
type AckRange struct {
	First, Last uint64 // inclusive, First <= Last
}

// AckFrame acknowledges ranges of packet numbers. Ranges are ordered
// descending by packet number, largest first, as in RFC 9000.
type AckFrame struct {
	Ranges []AckRange
}

func (f *AckFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeAck)
	b = appendVarint(b, uint64(len(f.Ranges)))
	for _, r := range f.Ranges {
		b = appendVarint(b, r.First)
		b = appendVarint(b, r.Last)
	}
	return b
}

func (f *AckFrame) wireSize() int {
	n := 1 + varintLen(uint64(len(f.Ranges)))
	for _, r := range f.Ranges {
		n += varintLen(r.First) + varintLen(r.Last)
	}
	return n
}

// MaxDataFrame raises the connection-level flow-control limit.
type MaxDataFrame struct {
	Max uint64
}

func (f *MaxDataFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeMaxData)
	return appendVarint(b, f.Max)
}
func (f *MaxDataFrame) wireSize() int { return 1 + varintLen(f.Max) }

// StreamFrame carries stream data. Unreliable reports whether it was sent
// on an unreliable stream (USTREAM wire type); such frames are never
// retransmitted.
//
// A frame's payload is either real — Data — or elided: Elided content-free
// bytes that occupy the wire (packet budget, congestion and flow control,
// link serialization all count them) but are never materialized. An elided
// frame encodes its header only, with elidedBit set. Never both at once; a
// frame without real payload has a nil Data, also when DecodePacket made it.
type StreamFrame struct {
	StreamID   uint64
	Offset     uint64
	Data       []byte
	Elided     int
	Fin        bool
	Unreliable bool
}

// Len returns the payload length in stream bytes, real or elided.
func (f *StreamFrame) Len() int { return len(f.Data) + f.Elided }

// cutFront moves the first n payload bytes of f into head, leaving f the
// remainder (the retransmit split when a lost frame no longer fits).
func (f *StreamFrame) cutFront(head *StreamFrame, n int) {
	head.StreamID, head.Offset, head.Unreliable = f.StreamID, f.Offset, f.Unreliable
	if f.Elided > 0 {
		head.Elided, f.Elided = n, f.Elided-n
	} else {
		head.Data, f.Data = f.Data[:n], f.Data[n:]
	}
	f.Offset += uint64(n)
}

func (f *StreamFrame) appendTo(b []byte) []byte {
	t := byte(frameTypeStream)
	if f.Unreliable {
		t = frameTypeUStream
	}
	if f.Fin {
		t |= finBit
	}
	if f.Elided > 0 {
		t |= elidedBit
	}
	b = append(b, t)
	b = appendVarint(b, f.StreamID)
	b = appendVarint(b, f.Offset)
	b = appendVarint(b, uint64(f.Len()))
	return append(b, f.Data...)
}

func (f *StreamFrame) wireSize() int {
	return streamFrameOverhead(f.StreamID, f.Offset, f.Len()) + f.Len()
}

// streamFrameOverhead bounds the header size of a stream frame, used when
// packing packets.
func streamFrameOverhead(streamID, offset uint64, maxLen int) int {
	return 1 + varintLen(streamID) + varintLen(offset) + varintLen(uint64(maxLen))
}

// LossReportFrame tells the receiver that [Offset, Offset+Length) of an
// unreliable stream was lost and will not be retransmitted by the
// transport. It is itself delivered reliably.
type LossReportFrame struct {
	StreamID uint64
	Offset   uint64
	Length   uint64
}

func (f *LossReportFrame) appendTo(b []byte) []byte {
	b = append(b, frameTypeLossReport)
	b = appendVarint(b, f.StreamID)
	b = appendVarint(b, f.Offset)
	return appendVarint(b, f.Length)
}

func (f *LossReportFrame) wireSize() int {
	return 1 + varintLen(f.StreamID) + varintLen(f.Offset) + varintLen(f.Length)
}

// rxFrame is decodeFrame's target: the frame it last decoded, in the member
// kind names. Reused, so decoding does not allocate.
type rxFrame struct {
	kind    byte
	ack     AckFrame
	maxData MaxDataFrame
	stream  StreamFrame // Data aliases the wire bytes
	loss    LossReportFrame
}

// decodeFrame decodes the frame at the front of b (len(b) > 0) into fr,
// sets fr.kind — the frame type, with every STREAM/USTREAM variant folded
// into frameTypeStream — and returns the remaining bytes. It is the only
// frame decoder.
func decodeFrame(b []byte, fr *rxFrame) (rest []byte, err error) {
	t := b[0]
	fr.kind, rest = t, b[1:]
	switch {
	case t == frameTypePing:
	case t == frameTypeAck:
		var n uint64
		if n, rest, err = consumeVarint(rest); err != nil {
			return nil, err
		}
		fr.ack.Ranges = fr.ack.Ranges[:0]
		for i := uint64(0); i < n; i++ {
			var r AckRange
			if r.First, rest, err = consumeVarint(rest); err != nil {
				return nil, err
			}
			if r.Last, rest, err = consumeVarint(rest); err != nil {
				return nil, err
			}
			if r.First > r.Last {
				return nil, fmt.Errorf("quic: invalid ack range %d..%d", r.First, r.Last)
			}
			fr.ack.Ranges = append(fr.ack.Ranges, r)
		}
	case t == frameTypeMaxData:
		if fr.maxData.Max, rest, err = consumeVarint(rest); err != nil {
			return nil, err
		}
	case t&^streamFlagBits == frameTypeStream || t&^streamFlagBits == frameTypeUStream:
		f := &fr.stream
		fr.kind = frameTypeStream
		var length uint64
		if f.StreamID, f.Offset, length, rest, err = consumeVarint3(rest); err != nil {
			return nil, err
		}
		f.Fin = t&finBit != 0
		f.Unreliable = t&^streamFlagBits == frameTypeUStream
		f.Data, f.Elided = nil, 0
		switch {
		case t&elidedBit != 0:
			if length == 0 || length > maxElided {
				return nil, errors.New("quic: bad elided stream frame length")
			}
			f.Elided = int(length)
		case uint64(len(rest)) < length:
			return nil, errors.New("quic: truncated stream frame")
		default:
			f.Data = rest[:length:length]
			rest = rest[length:]
		}
	case t == frameTypeLossReport:
		f := &fr.loss
		if f.StreamID, f.Offset, f.Length, rest, err = consumeVarint3(rest); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("quic: unknown frame type 0x%02x", t)
	}
	return rest, nil
}

// consumeVarint3 decodes the (stream ID, offset, length) triple that
// STREAM, USTREAM and LOSS_REPORT headers share.
func consumeVarint3(b []byte) (v0, v1, v2 uint64, rest []byte, err error) {
	if v0, rest, err = consumeVarint(b); err == nil {
		if v1, rest, err = consumeVarint(rest); err == nil {
			v2, rest, err = consumeVarint(rest)
		}
	}
	return v0, v1, v2, rest, err
}

// Packet is one QUIC* packet: a packet number followed by frames.
type Packet struct {
	Number uint64
	Frames []Frame
}

// packetHeaderByte marks a short-header 1-RTT packet.
const packetHeaderByte = 0x40

// Encode serializes the packet into a fresh buffer.
func (p *Packet) Encode() []byte {
	return p.AppendTo(make([]byte, 0, p.WireSize()))
}

// AppendTo appends the packet's wire encoding to b and returns the extended
// slice.
func (p *Packet) AppendTo(b []byte) []byte {
	b = append(b, packetHeaderByte)
	b = appendVarint(b, p.Number)
	for _, f := range p.Frames {
		b = f.appendTo(b)
	}
	return b
}

// WireSize returns the packet's size on the wire in bytes: the encoded
// length plus the elided payload of its stream frames.
func (p *Packet) WireSize() int {
	n := 1 + varintLen(p.Number)
	for _, f := range p.Frames {
		n += f.wireSize()
	}
	return n
}

// DecodePacket parses an encoded packet into freshly allocated frames.
func DecodePacket(b []byte) (*Packet, error) {
	if len(b) == 0 || b[0] != packetHeaderByte {
		return nil, errors.New("quic: bad packet header")
	}
	pn, rest, err := consumeVarint(b[1:])
	if err != nil {
		return nil, err
	}
	p := &Packet{Number: pn}
	var fr rxFrame
	for len(rest) > 0 {
		if rest, err = decodeFrame(rest, &fr); err != nil {
			return nil, err
		}
		switch fr.kind {
		case frameTypePing:
			p.Frames = append(p.Frames, PingFrame{})
		case frameTypeAck:
			p.Frames = append(p.Frames, &AckFrame{Ranges: append([]AckRange(nil), fr.ack.Ranges...)})
		case frameTypeMaxData:
			f := fr.maxData
			p.Frames = append(p.Frames, &f)
		case frameTypeStream:
			f := fr.stream
			f.Data = append([]byte(nil), f.Data...)
			p.Frames = append(p.Frames, &f)
		case frameTypeLossReport:
			f := fr.loss
			p.Frames = append(p.Frames, &f)
		}
	}
	return p, nil
}

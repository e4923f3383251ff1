// Package httpsim implements the thin HTTP layer the paper uses to
// interface application and transport (§4.2): GET requests with HTTP range
// headers, and the custom x-voxel-unreliable request header that asks a
// VOXEL-aware server to deliver the response body over a QUIC* unreliable
// stream (announced back via an x-voxel-stream response header). A
// VOXEL-unaware server ignores the header and answers over the reliable
// stream; a VOXEL-unaware client never sends it — the backward-compatible
// matrix §4.2 describes.
//
// Messages use a textual HTTP/1.1-style wire format over QUIC streams; one
// request per stream. The head is text on the wire and nowhere else: each
// direction has one writer that appends the head's bytes to the kernel's
// scratch buffer (quic.Stream.Write appends them to the stream's own write
// buffer) and one scanner that reads an arrived head in place.
package httpsim

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"

	"voxel/internal/quic"
	"voxel/internal/sim"
)

// HeaderUnreliable requests unreliable body delivery.
const HeaderUnreliable = "x-voxel-unreliable"

// HeaderStream announces the unreliable stream carrying the body.
const HeaderStream = "x-voxel-stream"

// Object is server-side content addressable by byte ranges.
type Object interface {
	Size() int64
	// WriteRange queues the object's bytes [offset, offset+length) on dst.
	WriteRange(dst *quic.Stream, offset, length int64)
}

// Handler resolves request paths to objects.
type Handler interface {
	Resolve(path string) (Object, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(path string) (Object, error)

// Resolve implements Handler.
func (f HandlerFunc) Resolve(path string) (Object, error) { return f(path) }

// BytesObject serves a fixed byte slice.
type BytesObject []byte

// Size implements Object.
func (b BytesObject) Size() int64 { return int64(len(b)) }

// WriteRange implements Object.
func (b BytesObject) WriteRange(dst *quic.Stream, offset, length int64) {
	dst.WriteShared(b[offset : offset+length]) // fixed: never modified, so never copied
}

// ZeroObject serves n opaque bytes without materializing them — segment
// payloads whose content is irrelevant to the experiments. It hands the
// transport a byte count, never a buffer (quic.Stream.WriteZeros).
type ZeroObject int64

// Size implements Object.
func (z ZeroObject) Size() int64 { return int64(z) }

// WriteRange implements Object.
func (z ZeroObject) WriteRange(dst *quic.Stream, offset, length int64) {
	dst.WriteZeros(int(length))
}

// RangeSpec lists requested [start, end) object ranges, in request order.
// Empty means the whole object.
type RangeSpec [][2]int64

// TotalBytes returns the summed length of the ranges.
func (r RangeSpec) TotalBytes() int64 {
	var n int64
	for _, rr := range r {
		n += rr[1] - rr[0]
	}
	return n
}

// Project maps body coverage back to where it was requested from. cov holds
// offsets into the response body — the spec's ranges concatenated in request
// order, which is what Response.Received and Response.Lost report — and every
// covered byte is added to dst at its object offset less base (the object
// offset the caller counts from: a segment's start, or 0). A cov range that
// straddles two spec ranges lands in both; body offsets past the spec's total
// map to nothing, so an empty spec (the whole object) projects nothing.
func (r RangeSpec) Project(dst, cov *quic.RangeSet, base int64) {
	covered := cov.Ranges()
	pos := int64(0) // body offset at which rr starts
	for _, rr := range r {
		end := pos + rr[1] - rr[0]
		for len(covered) > 0 && int64(covered[0].Start) < end {
			c := covered[0]
			s, e := max(int64(c.Start), pos), min(int64(c.End), end)
			if e > s {
				dst.Add(uint64(rr[0]+s-pos-base), uint64(rr[0]+e-pos-base))
			}
			if int64(c.End) > end {
				break // the rest of c belongs to the next spec range
			}
			covered = covered[1:]
		}
		pos = end
	}
}

var crlf, space, comma, dash, rangeUnit = []byte("\r\n"), []byte(" "), []byte(","), []byte("-"), []byte("bytes=")

// headerLine is a caller-supplied request header; name is key lower-cased.
type headerLine struct{ name, key, value string }

// sortedHeaders snapshots extra as lines sorted by name. Of keys that collide
// once lower-cased the one sorting last wins, whatever the map's iteration
// order (voxel-vet: determinism).
func sortedHeaders(extra map[string]string) []headerLine {
	hs := make([]headerLine, 0, len(extra))
	for k, v := range extra {
		hs = append(hs, headerLine{key: k, value: v})
	}
	for i := range hs {
		hs[i].name = string(bytes.ToLower([]byte(hs[i].key)))
	}
	slices.SortFunc(hs, func(a, b headerLine) int {
		return cmp.Or(cmp.Compare(a.name, b.name), cmp.Compare(b.key, a.key))
	})
	return slices.CompactFunc(hs, func(a, b headerLine) bool { return a.name == b.name })
}

// appendLinesBelow appends the lines of hs that sort before limit ("": all)
// and returns the rest, less limit's own line, which a built-in overrides.
func appendLinesBelow(dst []byte, hs []headerLine, limit string) ([]byte, []headerLine) {
	for ; len(hs) > 0 && (limit == "" || hs[0].name < limit); hs = hs[1:] {
		dst = append(dst, hs[0].name...)
		dst = append(dst, ": "...)
		dst = append(dst, hs[0].value...)
		dst = append(dst, crlf...)
	}
	if len(hs) > 0 && hs[0].name == limit {
		hs = hs[1:]
	}
	return dst, hs
}

// appendRequestHead appends the head of a GET to dst, header lines in name
// order: range if ranges is non-empty, x-voxel-unreliable if set, and extra.
func appendRequestHead(dst []byte, path string, ranges RangeSpec, unreliable bool, extra []headerLine) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\n"...)
	if len(ranges) > 0 {
		dst, extra = appendLinesBelow(dst, extra, "range")
		dst = append(dst, "range: bytes="...)
		for i, rr := range ranges {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, rr[0], 10)
			dst = append(dst, '-')
			dst = strconv.AppendInt(dst, rr[1]-1, 10)
		}
		dst = append(dst, crlf...)
	}
	if unreliable {
		dst, extra = appendLinesBelow(dst, extra, HeaderUnreliable)
		dst = append(dst, HeaderUnreliable+": 1\r\n"...)
	}
	dst, _ = appendLinesBelow(dst, extra, "")
	dst = append(dst, crlf...)
	return dst
}

// appendResponseHead appends a response head to dst: status line, content-
// length and, if announce, the unreliable body stream's x-voxel-stream line.
func appendResponseHead(dst []byte, status int, bodyLen int64, streamID uint64, announce bool) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, statusText(status)...)
	dst = append(dst, "\r\ncontent-length: "...)
	dst = strconv.AppendInt(dst, bodyLen, 10)
	dst = append(dst, crlf...)
	if announce {
		dst = append(dst, HeaderStream+": "...)
		dst = strconv.AppendUint(dst, streamID, 10)
		dst = append(dst, crlf...)
	}
	dst = append(dst, crlf...)
	return dst
}

// head is a scanned message head: sub-slices of the scanned bytes. A header
// that is absent is nil; one that is present with an empty value is not.
type head struct {
	first                              []byte // request or status line
	ranges, unreliable, length, stream []byte // range, x-voxel-unreliable, content-length, x-voxel-stream
}

// scanHead splits a head, in place, into its first line and the values of
// the headers either endpoint reads. Names are trimmed and matched whatever
// their case, values trimmed; of duplicate lines the last wins. ok is false
// when the first line is empty or a later non-empty one has no colon.
func scanHead(data []byte) (h head, ok bool) {
	line, rest, _ := bytes.Cut(data, crlf)
	if len(line) == 0 {
		return head{}, false
	}
	h.first = line
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, crlf)
		if len(line) == 0 {
			continue
		}
		c := bytes.IndexByte(line, ':')
		if c < 0 {
			return head{}, false
		}
		name, value := bytes.TrimSpace(line[:c]), bytes.TrimSpace(line[c+1:])
		if value == nil {
			value = line[:0] // present, empty
		}
		switch {
		case bytes.EqualFold(name, []byte("range")):
			h.ranges = value
		case bytes.EqualFold(name, []byte(HeaderUnreliable)):
			h.unreliable = value
		case bytes.EqualFold(name, []byte("content-length")):
			h.length = value
		case bytes.EqualFold(name, []byte(HeaderStream)):
			h.stream = value
		}
	}
	return h, true
}

// appendRanges parses a range value ("bytes=0-906,2000-2000") onto dst as
// [start, end) pairs; ok is false for a part with no '-', a bound ParseInt
// rejects, or a last byte before its first.
func appendRanges(dst RangeSpec, v []byte) (_ RangeSpec, ok bool) {
	v = bytes.TrimPrefix(v, rangeUnit)
	for more := true; more; {
		var part []byte
		part, v, more = bytes.Cut(v, comma)
		lo, hi, found := bytes.Cut(part, dash)
		start, errLo := strconv.ParseInt(string(lo), 10, 64)
		last, errHi := strconv.ParseInt(string(hi), 10, 64)
		if !found || errLo != nil || errHi != nil || last < start {
			return dst, false
		}
		dst = append(dst, [2]int64{start, last + 1})
	}
	return dst, true
}

// headEnd finds the end of the head ("\r\n\r\n"); -1 if incomplete.
func headEnd(data []byte) int {
	idx := bytes.Index(data, []byte("\r\n\r\n"))
	if idx < 0 {
		return -1
	}
	return idx + 4
}

// exchangeStore is the kernel's storage of HTTP exchanges (DESIGN.md §5),
// shared by every client and server of its worlds: responses, early stream
// buffers, the server's request readers, head reassembly buffers and the
// scratch heads are written and ranges parsed into. A response is never Put
// — a caller may read one after it resolved — so each comes back when its
// world ends; early buffers and readers are Put once done with. Scratch is
// used within one call — a written head is copied into its stream, parsed
// ranges are read by the serve that parsed them — so every endpoint shares
// it.
type exchangeStore struct {
	responses sim.Pool[Response, *Response]
	early     sim.Pool[earlyStream, *earlyStream]
	readers   sim.Pool[reader, *reader]
	// None pins a world, so none is taken back: head buffers, the request
	// paths servers have resolved (intern), and scratch.
	heads  headPool
	paths  map[string]string
	out    []byte    // a request or response head, written
	ranges RangeSpec // a request's ranges, parsed
}

var exchanges sim.Local[exchangeStore]

// EndWorld takes back everything the ending world was lent.
func (st *exchangeStore) EndWorld() {
	st.responses.EndWorld()
	st.early.EndWorld()
	st.readers.EndWorld()
}

// headBuf reassembles the textual head at the front of a reliable stream
// from frames that may arrive out of order. Only real bytes are buffered —
// an elided range counts toward coverage alone — and the buffer grows
// geometrically, so a head packet that arrives after the rest of its window
// costs memory linear in the real bytes that overtook it.
type headBuf struct {
	buf []byte        // from the kernel's headPool; nil until real bytes arrive
	cov quic.RangeSet // stream-offset coverage while the head is incomplete
}

// add records the stream range [off, off+n) (data nil when elided) and
// returns the end of the head once its terminator lies in the contiguous
// covered prefix, -1 until then.
func (h *headBuf) add(pool *headPool, off, n uint64, data []byte) int {
	if data != nil {
		if h.buf == nil {
			h.buf = pool.get()
		}
		h.buf = putAt(h.buf, off, data)
	}
	h.cov.Add(off, off+n)
	contig := h.cov.ContiguousFrom(0)
	if contig > uint64(len(h.buf)) {
		contig = uint64(len(h.buf))
	}
	return headEnd(h.buf[:contig])
}

// reset empties h for the next head: the buffer goes back to pool, the
// coverage set keeps its storage.
func (h *headBuf) reset(pool *headPool) {
	pool.put(h.buf)
	h.buf = nil
	h.cov.Reset()
}

// headPool is the kernel's freelist of head reassembly buffers, shared by
// every endpoint: taken when an exchange's first head bytes arrive, put back
// once the head is scanned.
type headPool [][]byte

// maxPooledHead keeps a buffer that grew to the size of the body that
// overtook a lost head packet from being retained for the kernel's life.
const maxPooledHead = 16 << 10

func (p *headPool) get() []byte {
	if n := len(*p); n > 0 {
		b := (*p)[n-1]
		*p = (*p)[:n-1]
		return b
	}
	return make([]byte, 0, 2048) // fits every head the experiments send
}

func (p *headPool) put(b []byte) {
	if b != nil && cap(b) <= maxPooledHead {
		*p = append(*p, b[:0])
	}
}

// putAt copies data to buf[off:], zero-extending buf (geometrically) first
// if it is too short.
func putAt(buf []byte, off uint64, data []byte) []byte {
	if grow := int(off) + len(data) - len(buf); grow > 0 {
		buf = append(buf, make([]byte, grow)...)
	}
	copy(buf[off:], data)
	return buf
}

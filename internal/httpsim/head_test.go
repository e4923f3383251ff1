package httpsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
)

// --- the differential reference --------------------------------------------
//
// formatRangeHeader, parseRangeHeader, encodeHead and parseHead are the head
// codec as it stood before the head was written once and scanned in place,
// moved here verbatim; refRequestHead, refParseRequest and refParseResponse
// are what Client.Get, Server.serve and Response.parseHead did around them.

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

// refRequestHead is the head Client.Get and issue used to build: a header
// map (the caller's keys lower-cased in sorted order, then the built-ins)
// encoded in sorted key order.
func refRequestHead(path string, ranges RangeSpec, unreliable bool, extra map[string]string) []byte {
	headers := make(map[string]string, len(extra)+2)
	extraKeys := make([]string, 0, len(extra))
	for k := range extra {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)
	for _, k := range extraKeys {
		headers[strings.ToLower(k)] = extra[k]
	}
	if len(ranges) > 0 {
		headers["range"] = formatRangeHeader(ranges)
	}
	if unreliable {
		headers[HeaderUnreliable] = "1"
	}
	return encodeHead("GET "+path+" HTTP/1.1", headers)
}

// refResponseHead is the head Server.serve and respondError used to build.
func refResponseHead(status int, bodyLen int64, streamID uint64, announce bool) []byte {
	headers := map[string]string{"content-length": strconv.FormatInt(bodyLen, 10)}
	if announce {
		headers[HeaderStream] = strconv.FormatUint(streamID, 10)
	}
	return encodeHead(fmt.Sprintf("HTTP/1.1 %d %s", status, statusText(status)), headers)
}

// request is everything a server decides from a request head.
type request struct {
	status     int
	path       string // as handed to Resolve; "" if it never was
	ranges     RangeSpec
	unreliable bool
}

// refParseRequest is the decision part of the old Server.serve. Every path
// but "/missing" resolves to an object of the given size.
func refParseRequest(head []byte, size int64, voxelUnaware bool) request {
	first, headers, err := parseHead(head)
	if err != nil {
		return request{status: 400}
	}
	parts := strings.SplitN(first, " ", 3)
	if len(parts) < 2 || parts[0] != "GET" {
		return request{status: 405}
	}
	path := parts[1]
	if path == "/missing" {
		return request{status: 404, path: path}
	}
	ranges := RangeSpec{{0, size}}
	status := 200
	if rh, ok := headers["range"]; ok {
		parsed, err := parseRangeHeader(rh)
		if err != nil {
			return request{status: 416, path: path}
		}
		for _, r := range parsed {
			if r[0] < 0 || r[1] > size {
				return request{status: 416, path: path}
			}
		}
		ranges = parsed
		status = 206
	}
	return request{status, path, ranges, !voxelUnaware && headers[HeaderUnreliable] == "1"}
}

// response is everything a client reads off a response head.
type response struct {
	status     int
	bodyLen    int64
	unreliable bool
	stream     uint64
}

// refParseResponse is the old Response.parseHead without its callbacks.
func refParseResponse(head []byte) (r response) {
	first, headers, err := parseHead(head)
	if err != nil {
		return response{status: 400}
	}
	parts := strings.SplitN(first, " ", 3)
	if len(parts) >= 2 {
		r.status, _ = strconv.Atoi(parts[1])
	}
	if cl, ok := headers["content-length"]; ok {
		r.bodyLen, _ = strconv.ParseInt(cl, 10, 64)
	}
	if sid, ok := headers[HeaderStream]; ok {
		r.unreliable = true
		r.stream, _ = strconv.ParseUint(sid, 10, 64)
	}
	return r
}

// --- the code under test, driven the same way -------------------------------

func newParseRequest(head []byte, size int64, voxelUnaware bool) request {
	var got request
	s := &Server{opts: ServerOptions{VoxelUnaware: voxelUnaware}, handler: HandlerFunc(func(p string) (Object, error) {
		got.path = p
		if p == "/missing" {
			return nil, errNotFound{}
		}
		return ZeroObject(size), nil
	})}
	var obj Object
	got.status, obj, got.unreliable = s.parseRequest(head)
	if obj != nil {
		got.ranges = s.ranges
	}
	return got
}

func newParseResponse(head []byte) response {
	c := &Client{pendingByStream: map[uint64]pendingRef{}, earlyStreams: map[uint64]*earlyStream{}}
	r := &Response{client: c}
	r.parseHead(head)
	got := response{status: r.Status, bodyLen: r.BodyLen, unreliable: r.Unreliable}
	for id := range c.pendingByStream { //voxel:det-ok one head adopts at most one stream
		got.stream = id
	}
	return got
}

// checkScanAgrees asserts that the in-place scanner and everything both
// endpoints derive from it agree with the reference on head — on every
// field, and on whether and with which status it is rejected.
func checkScanAgrees(t *testing.T, head []byte) {
	t.Helper()
	first, headers, err := parseHead(head)
	h, ok := scanHead(head)
	if ok != (err == nil) {
		t.Fatalf("%q: scanHead ok=%v, reference err=%v", head, ok, err)
	}
	if ok {
		if string(h.first) != first {
			t.Fatalf("%q: first line %q, reference %q", head, h.first, first)
		}
		for _, f := range []struct {
			name string
			got  []byte
		}{{"range", h.ranges}, {HeaderUnreliable, h.unreliable}, {"content-length", h.length}, {HeaderStream, h.stream}} {
			want, present := headers[f.name]
			if present != (f.got != nil) || string(f.got) != want {
				t.Fatalf("%q: %s = %q (present %v), reference %q (present %v)", head, f.name, f.got, f.got != nil, want, present)
			}
		}
	}
	for _, unaware := range []bool{false, true} {
		if got, want := newParseRequest(head, 10_000, unaware), refParseRequest(head, 10_000, unaware); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q (unaware=%v): server reads %+v, reference %+v", head, unaware, got, want)
		}
	}
	if got, want := newParseResponse(head), refParseResponse(head); got != want {
		t.Fatalf("%q: client reads %+v, reference %+v", head, got, want)
	}
}

// malformedHeads are heads no writer here produces: what the accept/reject
// rules are for.
var malformedHeads = []string{
	"",
	"\r\n\r\n",
	"\r\nrange: bytes=0-1\r\n\r\n",
	"GET /a HTTP/1.1",
	"GET /a HTTP/1.1\r\n\r\n",
	"GET /a\r\n\r\n",
	"GET\r\n\r\n",
	"GET  /a HTTP/1.1\r\n\r\n",
	"get /a HTTP/1.1\r\n\r\n",
	"POST /a HTTP/1.1\r\n\r\n",
	"GET /missing HTTP/1.1\r\nrange: bytes=9-3\r\n\r\n",
	"GET /a HTTP/1.1\r\nno colon here\r\n\r\n",
	"GET /a HTTP/1.1\r\n\r\nno colon after an empty line\r\n",
	"GET /a HTTP/1.1\r\n: value without a name\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange:\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange:   \r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: 0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=bytes=0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-1,\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=,0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=9-3\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=x-3\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=3\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=-5-3\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=+1-+2\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=1_0-2_0\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0x1-0x2\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0 - 1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-9999\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-10000\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-9223372036854775807\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-9223372036854775808\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-1\r\nrange: bytes=9-3\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=9-3\r\nRANGE: bytes=0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\n \tRaNgE\t : \tbytes=5-6 \r\n\r\n",
	"GET /a HTTP/1.1\r\nrange : bytes=0-1\r\nx-voxel-unreliable : 1 \r\n\r\n",
	"GET /a HTTP/1.1\r\nX-Voxel-Unreliable:1\r\n\r\n",
	"GET /a HTTP/1.1\r\nx-voxel-unreliable: 01\r\n\r\n",
	"GET /a HTTP/1.1\r\nx-voxel-unreliable: true\r\n\r\n",
	"GET /a HTTP/1.1\r\nx-voxel-unreliable:\r\n\r\n",
	"GET /a HTTP/1.1\r\nx-voxel-unreliable: 1\r\nx-voxel-unreliable: 0\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-1\nx-voxel-unreliable: 1\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	"HTTP/1.1 \r\n\r\n",
	"HTTP/1.1 abc OK\r\n\r\n",
	"HTTP/1.1 99999999999999999999 OK\r\n\r\n",
	"HTTP/1.1 206\r\nContent-Length: 12\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length: x\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length: -4\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length: 7\r\nx-voxel-stream:\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length: 7\r\nx-voxel-stream: -3\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length: 7\r\nX-VOXEL-STREAM: 3\r\nx-voxel-stream: 11\r\n\r\n",
	"HTTP/1.1 206 Partial Content\r\ncontent-length 7\r\n\r\n",
	// What a hole in a reassembly buffer looks like: zeros where a frame is missing.
	"\x00\x00\x00\x00\x00\x00\x00\x00,40-49\r\nx-voxel-unreliable: 1\r\n\r\n",
	"\x00\x00\x00\x00 /a HTTP/1.1\r\nrange: bytes=0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-1,\x00\x00\x00\x00,8-9\r\n\r\n",
	"GET /a HTTP/1.1\r\nra\x00\x00\x00\x00\x00\x00\x00\x00\x00\x000-1\r\n\r\n",
	"GET /a HT\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00es=0-1\r\n\r\n",
	"GET /a HTTP/1.1\r\nrange: bytes=0-1\r\nx-voxel-unrel\x00\x00\x00\x00\x00\x00\x001\r\n\r\n",
	"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\r\n\r\n",
}

// randomSpec draws n ranges inside an object of the given size.
func randomSpec(rng *rand.Rand, n int, size int64) RangeSpec {
	var spec RangeSpec
	for i := 0; i < n; i++ {
		a := rng.Int63n(size)
		spec = append(spec, [2]int64{a, a + 1 + rng.Int63n(size-a)})
	}
	return spec
}

// TestHeadCodecMatchesReference: the two writers emit byte for byte what
// the map-and-Builder encoder emitted, and the scanner and both endpoints
// read every such head — and the malformed ones — exactly as the
// Split-and-map parser did.
func TestHeadCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type req struct {
		path       string
		ranges     RangeSpec
		unreliable bool
		extra      map[string]string
	}
	extras := []map[string]string{
		nil,
		{},
		{"accept": "*/*"},              // sorts before range
		{"user-agent": "voxel"},        // between range and x-voxel-unreliable
		{"y-last": "z", "Z-Last": "y"}, // after both
		{"Accept": "a", "accept": "b", "ACCEPT": "c"},                   // collide once lower-cased: the key sorting last wins
		{"Range": "bytes=7-7"},                                          // collides with the built-in, which wins when there are ranges
		{"X-Voxel-Unreliable": "0", "x-voxel-stream": "9"},              // the same for the negotiation header
		{"a": "1", "range": "bytes=0-0", "s": "2", "x-w": "3", "y": ""}, // all positions at once
	}
	var reqs []req
	for _, n := range []int{0, 1, 2, 300} {
		for _, unreliable := range []bool{false, true} {
			for _, extra := range extras {
				reqs = append(reqs, req{"/video/7", randomSpec(rng, n, 10_000), unreliable, extra})
			}
		}
	}
	reqs = append(reqs, req{"/missing", nil, false, nil}, req{"", nil, true, nil}, req{"/a b", RangeSpec{{5, 6}}, false, nil},
		req{"/a", RangeSpec{{0, 10_001}}, false, nil}, req{"/a", RangeSpec{{-3, 4}}, true, nil}, req{"/a", RangeSpec{{8, 8}}, false, nil})
	for i := 0; i < 200; i++ {
		reqs = append(reqs, req{"/" + strconv.Itoa(rng.Intn(1000)), randomSpec(rng, rng.Intn(40), 12_000), rng.Intn(2) == 0, extras[rng.Intn(len(extras))]})
	}
	scratch := []byte("stale bytes from the previous head")
	for _, rq := range reqs {
		scratch = appendRequestHead(scratch[:0], rq.path, rq.ranges, rq.unreliable, sortedHeaders(rq.extra))
		if want := refRequestHead(rq.path, rq.ranges, rq.unreliable, rq.extra); !bytes.Equal(scratch, want) {
			t.Fatalf("request %+v:\n got %q\nwant %q", rq, scratch, want)
		}
		checkScanAgrees(t, scratch)
	}

	for _, status := range []int{200, 206, 400, 404, 405, 416, 500} {
		for _, bodyLen := range []int64{0, 1, 65536, 1 << 40} {
			for _, stream := range []uint64{0, 3, 1<<62 + 3} {
				for _, announce := range []bool{false, true} {
					scratch = appendResponseHead(scratch[:0], status, bodyLen, stream, announce)
					if want := refResponseHead(status, bodyLen, stream, announce); !bytes.Equal(scratch, want) {
						t.Fatalf("response %d/%d/%d/%v:\n got %q\nwant %q", status, bodyLen, stream, announce, scratch, want)
					}
					checkScanAgrees(t, scratch)
				}
			}
		}
	}

	for _, h := range malformedHeads {
		checkScanAgrees(t, []byte(h))
	}
	// And every way of zero-filling one gap of a real two-packet head.
	full := refRequestHead("/video/3", randomSpec(rng, 120, 10_000), true, nil)
	for i := 0; i < 400; i++ {
		holed := bytes.Clone(full)
		a := rng.Intn(len(holed))
		clear(holed[a : a+rng.Intn(len(holed)-a)+1])
		checkScanAgrees(t, holed)
	}
}

// FuzzHeadScan holds the scanner to the reference over ASCII heads with
// zero-filled gaps — text both writers could have produced, some of it
// missing, is the only malformed head a simulation can come by.
func FuzzHeadScan(f *testing.F) {
	for _, h := range malformedHeads {
		f.Add([]byte(h))
	}
	f.Add(refRequestHead("/video/12", RangeSpec{{0, 907}, {2000, 2001}}, true, map[string]string{"Accept": "*/*"}))
	f.Add(refResponseHead(206, 908, 3, true))
	f.Fuzz(func(t *testing.T, head []byte) {
		for i := range head {
			head[i] &= 0x7f
		}
		checkScanAgrees(t, head)
	})
}

// TestRangeHeaderRoundTrip: a spec survives the request writer, the scanner
// and the range parser.
func TestRangeHeaderRoundTrip(t *testing.T) {
	r := RangeSpec{{0, 907}, {2000, 2001}}
	h, ok := scanHead(appendRequestHead(nil, "/a", r, false, nil))
	if !ok || string(h.ranges) != "bytes=0-906,2000-2000" {
		t.Fatalf("range line: %q (ok=%v)", h.ranges, ok)
	}
	parsed, ok := appendRanges(RangeSpec{{1, 2}}[:0], h.ranges)
	if !ok || !reflect.DeepEqual(parsed, r) {
		t.Fatalf("roundtrip: %v (ok=%v)", parsed, ok)
	}
	if _, ok := appendRanges(nil, []byte("bytes=9-3")); ok {
		t.Fatal("inverted range should fail")
	}
	if _, ok := appendRanges(nil, []byte("bytes=x-3")); ok {
		t.Fatal("garbage should fail")
	}
}

// --- the wire ---------------------------------------------------------------

// delayNext holds back the first datagram that leaves the link after it is
// armed, so the ones behind it overtake it.
type delayNext struct {
	armed bool
	by    sim.Time
}

func (d *delayNext) Apply(_ sim.Time, _ *rand.Rand, f *netem.Fate) {
	if d.armed {
		d.armed = false
		f.ExtraDelay += d.by
	}
}

// rawExchange plays the client by hand against a Server: it writes the
// given pieces of a request head to one stream, each in its own packet, the
// piece with index late held back on the uplink until the others are in,
// and returns every byte the server answered on that stream.
func rawExchange(t *testing.T, pieces [][]byte, late int) []byte {
	t.Helper()
	s := sim.New(5)
	path := netem.NewFixedPath(s, 100e6, 1200)
	delay := &delayNext{by: 25 * time.Millisecond}
	path.Up.Impair(delay, 1)
	cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
	srv := NewServer(sc, HandlerFunc(func(string) (Object, error) { return ZeroObject(10_000), nil }), ServerOptions{})
	st := cc.OpenStream(false)
	var answer []byte
	st.OnData(func(off, _ uint64, data []byte) {
		if data != nil {
			answer = putAt(answer, off, data)
		}
	})
	for i, p := range pieces {
		delay.armed = i == late
		st.Write(p)
		s.RunUntil(s.Now() + 10*time.Millisecond) // the pacer spaces the first packets by several ms
	}
	st.CloseWrite()
	s.RunUntil(s.Now() + time.Second)
	if srv.RequestsServed != 1 {
		t.Fatalf("server answered %d requests, want 1", srv.RequestsServed)
	}
	return answer
}

// TestSplitRequestTailOvertakesHead pins what the goldens pin at full scale
// only: the server searches its zero-filled reassembly buffer for the head
// terminator, so a request whose tail frame arrives before an earlier one
// is answered from a head with a hole in it — 405 when the hole swallowed
// the request line, 400 when it cut a header name off its colon, 416 when
// it lies inside the range list. (ROADMAP item 4(a) replaces this test.)
func TestSplitRequestTailOvertakesHead(t *testing.T) {
	spec := make(RangeSpec, 150)
	for i := range spec {
		spec[i] = [2]int64{int64(i) * 50, int64(i)*50 + 40}
	}
	head := appendRequestHead(nil, "/video/5", spec, true, nil)
	if len(head) < 1300 || len(head) > 2000 {
		t.Fatalf("head is %d bytes, want a two-packet one", len(head))
	}
	unrel := bytes.Index(head, []byte(HeaderUnreliable))
	for _, tc := range []struct {
		name   string
		pieces [][]byte
		late   int
		want   string
	}{
		{"in order", [][]byte{head[:1100], head[1100:]}, -1,
			"HTTP/1.1 206 Partial Content\r\ncontent-length: 6000\r\nx-voxel-stream: 1\r\n\r\n"},
		{"tail before head", [][]byte{head[:1100], head[1100:]}, 0,
			"HTTP/1.1 405 Method Not Allowed\r\ncontent-length: 0\r\n\r\n"},
		{"tail before head, cut inside the negotiation line", [][]byte{head[:unrel+7], head[unrel+7:]}, 0,
			"HTTP/1.1 405 Method Not Allowed\r\ncontent-length: 0\r\n\r\n"},
		{"tail before middle, cut inside the range list", [][]byte{head[:600], head[600:1100], head[1100:]}, 1,
			"HTTP/1.1 416 Range Not Satisfiable\r\ncontent-length: 0\r\n\r\n"},
		{"tail before middle, header name cut off its colon", [][]byte{head[:unrel+7], head[unrel+7 : unrel+len(HeaderUnreliable)+1], head[unrel+len(HeaderUnreliable)+1:]}, 1,
			"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n"},
	} {
		if got := rawExchange(t, tc.pieces, tc.late); string(got) != tc.want {
			t.Errorf("%s: server answered %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestNegotiationVisibleOnTheWire: the §4.2 negotiation is text on the two
// streams, not a side channel. A Client's request is read off the stream by
// a hand-played server and must carry the literal x-voxel-unreliable line;
// those same bytes, written by a hand-played client, make a Server announce
// the unreliable stream it opened with a literal x-voxel-stream line.
func TestNegotiationVisibleOnTheWire(t *testing.T) {
	s := sim.New(9)
	cc, sc := quic.NewPair(s, netem.NewFixedPath(s, 100e6, 1200), quic.Config{}, quic.Config{})
	var request []byte
	sc.OnStream(func(st *quic.Stream) {
		st.OnData(func(off, _ uint64, data []byte) { request = putAt(request, off, data) })
	})
	NewClient(cc).Get("/video/2", RangeSpec{{100, 200}, {300, 400}}, true, nil)
	s.RunUntil(time.Second)
	if want := "GET /video/2 HTTP/1.1\r\nrange: bytes=100-199,300-399\r\nx-voxel-unreliable: 1\r\n\r\n"; string(request) != want {
		t.Fatalf("request on the wire:\n got %q\nwant %q", request, want)
	}

	s = sim.New(9)
	cc, sc = quic.NewPair(s, netem.NewFixedPath(s, 100e6, 1200), quic.Config{}, quic.Config{})
	srv := NewServer(sc, HandlerFunc(func(string) (Object, error) { return ZeroObject(1000), nil }), ServerOptions{})
	var announced []uint64
	cc.OnStream(func(st *quic.Stream) { announced = append(announced, st.ID()) })
	st := cc.OpenStream(false)
	var answer []byte
	st.OnData(func(off, _ uint64, data []byte) { answer = putAt(answer, off, data) })
	st.Write(request)
	st.CloseWrite()
	s.RunUntil(time.Second)
	if len(announced) != 1 || srv.UnreliableBodies != 1 {
		t.Fatalf("server opened streams %v for %d unreliable bodies, want one", announced, srv.UnreliableBodies)
	}
	if want := fmt.Sprintf("HTTP/1.1 206 Partial Content\r\ncontent-length: 200\r\nx-voxel-stream: %d\r\n\r\n", announced[0]); string(answer) != want {
		t.Fatalf("response on the wire:\n got %q\nwant %q", answer, want)
	}
}

// TestRequestMallocBudget holds the whole exchange — request written,
// reassembled, scanned and answered, response head scanned, body delivered
// — to a malloc budget per completed request. Before heads were written into
// scratch and scanned in place this rig read 49 for the 64 KiB range GET and
// 67 for the 300-range one; 19 and 24 after.
func TestRequestMallocBudget(t *testing.T) {
	body := make(RangeSpec, 300)
	for i := range body {
		body[i] = [2]int64{int64(i) * 400, int64(i)*400 + 200}
	}
	for _, tc := range []struct {
		name       string
		spec       func(i int) RangeSpec
		unreliable bool
		budget     float64
	}{
		{"64 KiB range GET", func(i int) RangeSpec { return RangeSpec{{int64(i) << 16, int64(i+1) << 16}} }, false, 30},
		{"300-range unreliable GET", func(int) RangeSpec { return body }, true, 35},
	} {
		s := sim.New(1)
		cc, sc := quic.NewPair(s, netem.NewFixedPath(s, 100e6, 1200), quic.Config{}, quic.Config{})
		NewServer(sc, HandlerFunc(func(string) (Object, error) { return ZeroObject(1 << 40), nil }), ServerOptions{})
		cl := NewClient(cc)
		issued, completed := 0, 0
		get := func() {
			cl.Get("/object", tc.spec(issued), tc.unreliable, nil).OnComplete = func() { completed++ }
			issued++
			s.RunUntil(s.Now() + time.Second)
		}
		for i := 0; i < 20; i++ {
			get() // grow the window and fill the transport's pools
		}
		per := testing.AllocsPerRun(200, get)
		if completed != issued {
			t.Fatalf("%s: %d of %d requests completed", tc.name, completed, issued)
		}
		t.Logf("%s: %.1f mallocs per request", tc.name, per)
		if per > tc.budget {
			t.Errorf("%s: %.1f mallocs per completed request, budget %.0f", tc.name, per, tc.budget)
		}
	}
}

// TestHeadCodecZeroAllocs: the head writers append into warm scratch and the
// scanner reads in place, so none of them allocates — with caller headers
// sorting both before range and after x-voxel-unreliable.
func TestHeadCodecZeroAllocs(t *testing.T) {
	extra := sortedHeaders(map[string]string{"accept": "*/*", "x-zeta": "1"})
	ranges := RangeSpec{{0, 907}, {2000, 2001}}
	var req, resp []byte
	for _, c := range []struct {
		name string
		call func()
	}{
		{"appendRequestHead", func() { req = appendRequestHead(req[:0], "/video/3", ranges, true, extra) }},
		{"appendResponseHead", func() { resp = appendResponseHead(resp[:0], 206, 907, 7, true) }},
		{"scanHead of a request", func() { scanHead(req) }},
		{"scanHead of a response", func() { scanHead(resp) }},
	} {
		c.call() // grow the scratch
		if n := testing.AllocsPerRun(100, c.call); n != 0 {
			t.Errorf("%s makes %v allocations, want 0", c.name, n)
		}
	}
}

// TestHeadPoolRoundTrip: a head reassembly buffer goes back to its
// endpoint's pool once the head is scanned, on the client and on the
// server, and when a retry abandons a half-reassembled head — so a warm
// endpoint takes one buffer per exchange and returns it.
func TestHeadPoolRoundTrip(t *testing.T) {
	s := sim.New(1)
	cc, sc := quic.NewPair(s, netem.NewFixedPath(s, 100e6, 1200), quic.Config{}, quic.Config{})
	srv := NewServer(sc, HandlerFunc(func(string) (Object, error) { return ZeroObject(1000), nil }), ServerOptions{})
	cl := NewClient(cc)
	for i := 0; i < 3; i++ {
		r := cl.Get("/object", nil, false, nil)
		s.RunUntil(s.Now() + time.Second)
		if !r.Complete() {
			t.Fatalf("exchange %d did not complete", i)
		}
		if len(cl.heads) != 1 || len(srv.heads) != 1 {
			t.Fatalf("after exchange %d the client pools %d head buffers and the server %d, want 1 each", i, len(cl.heads), len(srv.heads))
		}
	}

	cl.SetRecovery(Recovery{Retry: RetryPolicy{MaxAttempts: 2}})
	r := cl.Get("/object", nil, false, nil)
	r.head.add(&cl.heads, 100, 10, make([]byte, 10)) // body bytes that overtook a lost head packet
	r.failAttempt(ErrRequestTimeout)
	s.RunUntil(s.Now()) // the retry, before any answer
	if r.attempt != 2 || len(cl.heads) != 1 {
		t.Fatalf("attempt %d: the client pools %d head buffers, want the abandoned one back", r.attempt, len(cl.heads))
	}
	s.RunUntil(s.Now() + time.Second)
	if !r.Complete() || len(cl.heads) != 1 {
		t.Fatalf("the retried exchange completed=%v and left %d head buffers in the client's pool, want 1", r.Complete(), len(cl.heads))
	}
}

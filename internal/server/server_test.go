package server

import (
	"strings"
	"testing"
	"time"

	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/netem"
	"voxel/internal/quic"
	"voxel/internal/sim"
	"voxel/internal/trace"
	"voxel/internal/video"
)

func fixture(t *testing.T) (*sim.Sim, *httpsim.Client, *VideoServer, *dash.Manifest) {
	t.Helper()
	s := sim.New(5)
	path := netem.NewPath(s, trace.Constant("c", 20e6, 600), 64)
	cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
	v := video.MustLoad("BBB")
	v.Segments = 3
	m := dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: 6})
	vs, err := New(sc, m, httpsim.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s, httpsim.NewClient(cc), vs, m
}

func TestServesManifest(t *testing.T) {
	s, client, _, m := fixture(t)
	resp := client.Get(ManifestPath, nil, false, nil)
	var body []byte
	done := false
	resp.OnBody = func(off, _ int64, data []byte) { body = append(body, data...) }
	resp.OnComplete = func() { done = true }
	s.RunUntil(10 * time.Second)
	if !done || resp.Status != 200 {
		t.Fatalf("done=%v status=%d", done, resp.Status)
	}
	got, err := dash.DecodeMPD(body)
	if err != nil {
		t.Fatalf("served manifest does not parse: %v", err)
	}
	if got.NumSegments() != m.NumSegments() {
		t.Fatal("manifest shape lost in transit")
	}
}

func TestServesMediaRanges(t *testing.T) {
	s, client, _, m := fixture(t)
	seg := m.Segment(12, 1)
	resp := client.Get(VideoPath(12), httpsim.RangeSpec{{seg.MediaRange[0], seg.MediaRange[1]}}, false, nil)
	done := false
	resp.OnComplete = func() { done = true }
	s.RunUntil(30 * time.Second)
	if !done || resp.Status != 206 {
		t.Fatalf("done=%v status=%d", done, resp.Status)
	}
	if resp.BytesReceived() != int64(seg.Bytes) {
		t.Fatalf("received %d, want %d", resp.BytesReceived(), seg.Bytes)
	}
}

func TestRejectsUnknownPaths(t *testing.T) {
	s, client, _, _ := fixture(t)
	for _, p := range []string{"/nope", "/video/Q99", "/video/Qx"} {
		resp := client.Get(p, nil, false, nil)
		done := false
		resp.OnComplete = func() { done = true }
		s.RunUntil(s.Now() + 5*time.Second)
		if !done || resp.Status != 404 {
			t.Fatalf("%s: done=%v status=%d, want 404", p, done, resp.Status)
		}
	}
}

// TestResolveZeroAllocs: the server hands out prebuilt objects and the
// player names a video path from a table, so neither allocates.
func TestResolveZeroAllocs(t *testing.T) {
	_, _, vs, _ := fixture(t)
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range []string{ManifestPath, VideoPath(0), VideoPath(12)} {
			if _, err := vs.resolve(p); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("naming and resolving three paths makes %v allocations, want 0", n)
	}
}

func TestVideoPathFormat(t *testing.T) {
	for q, want := range []string{0: "/video/Q0", 12: "/video/Q12", 13: "/video/Q13"} {
		if got := VideoPath(q); want != "" && got != want {
			t.Fatalf("VideoPath(%d) = %q, want %q", q, got, want)
		}
	}
	if !strings.HasPrefix(ManifestPath, "/") {
		t.Fatal("manifest path must be absolute")
	}
}

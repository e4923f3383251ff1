package dash

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"voxel/internal/video"
)

// smallVideo trims a title to keep manifest tests fast.
func smallVideo(t *testing.T, name string, segs int) *video.Video {
	t.Helper()
	v := video.MustLoad(name)
	v.Segments = segs
	return v
}

func TestBuildPlainManifest(t *testing.T) {
	v := smallVideo(t, "BBB", 5)
	m := Build(v, BuildOptions{})
	if len(m.Reps) != video.NumQualities {
		t.Fatalf("%d reps, want %d", len(m.Reps), video.NumQualities)
	}
	if m.NumSegments() != 5 {
		t.Fatalf("%d segments", m.NumSegments())
	}
	if m.Duration() != 20*time.Second {
		t.Fatalf("duration %v", m.Duration())
	}
	// Media ranges tile each representation contiguously.
	for _, rep := range m.Reps {
		var off int64
		for i, seg := range rep.Segments {
			if seg.MediaRange[0] != off {
				t.Fatalf("rep %v seg %d starts at %d, want %d", rep.Quality, i, seg.MediaRange[0], off)
			}
			if seg.Voxel() {
				t.Fatal("plain manifest must not carry VOXEL data")
			}
			off = seg.MediaRange[1]
		}
	}
}

func TestBuildVoxelManifest(t *testing.T) {
	v := smallVideo(t, "ToS", 4)
	m := Build(v, BuildOptions{Voxel: true, PointsPerSegment: 8})
	for q := video.Quality(0); q < video.NumQualities; q++ {
		for i := 0; i < 4; i++ {
			seg := m.Segment(q, i)
			if !seg.Voxel() {
				t.Fatalf("Q%d seg %d missing VOXEL data", q, i)
			}
			if len(seg.Points) > 8 {
				t.Fatalf("points not thinned: %d", len(seg.Points))
			}
			if seg.ReliableSize <= 0 {
				t.Fatal("reliable size missing")
			}
			// Reliable + unreliable ranges must cover the segment exactly.
			var total int
			for _, r := range seg.Reliable {
				total += r[1] - r[0]
			}
			if total != seg.ReliableSize {
				t.Fatalf("reliable ranges cover %d, attr says %d", total, seg.ReliableSize)
			}
			for _, r := range seg.Unreliable {
				total += r[1] - r[0]
			}
			if total != seg.Bytes {
				t.Fatalf("ranges cover %d of %d bytes", total, seg.Bytes)
			}
			// Last point must describe the full segment.
			last := seg.Points[len(seg.Points)-1]
			if last.Bytes != seg.Bytes || last.Frames != video.FramesPerSeg {
				t.Fatalf("last point %+v does not describe the full segment (%d bytes)", last, seg.Bytes)
			}
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	v := smallVideo(t, "BBB", 3)
	m := Build(v, BuildOptions{Voxel: true, PointsPerSegment: 6})
	data, err := m.EncodeMPD()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ssims=") || !strings.Contains(string(data), "reliableSize=") {
		t.Fatal("encoded MPD missing VOXEL attributes")
	}
	got, err := DecodeMPD(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != m.Title || got.SegmentDuration != m.SegmentDuration {
		t.Fatalf("metadata mismatch: %q %v", got.Title, got.SegmentDuration)
	}
	if got.NumSegments() != m.NumSegments() || len(got.Reps) != len(m.Reps) {
		t.Fatal("shape mismatch after round trip")
	}
	for q := range m.Reps {
		for i := range m.Reps[q].Segments {
			a, b := m.Reps[q].Segments[i], got.Reps[q].Segments[i]
			if a.MediaRange != b.MediaRange || a.Bytes != b.Bytes || a.ReliableSize != b.ReliableSize {
				t.Fatalf("seg Q%d/%d scalar mismatch", q, i)
			}
			if len(a.Points) != len(b.Points) {
				t.Fatalf("seg Q%d/%d point count mismatch", q, i)
			}
			for j := range a.Points {
				if a.Points[j].Frames != b.Points[j].Frames || a.Points[j].Bytes != b.Points[j].Bytes {
					t.Fatalf("point mismatch at Q%d/%d/%d", q, i, j)
				}
				// scores travel with 4 decimals
				if d := a.Points[j].Score - b.Points[j].Score; d > 1e-4 || d < -1e-4 {
					t.Fatalf("score precision loss: %v vs %v", a.Points[j].Score, b.Points[j].Score)
				}
			}
			if len(a.Reliable) != len(b.Reliable) || len(a.Unreliable) != len(b.Unreliable) {
				t.Fatalf("range list mismatch at Q%d/%d", q, i)
			}
		}
	}
}

func TestStripRemovesVoxelData(t *testing.T) {
	v := smallVideo(t, "ED", 3)
	m := Build(v, BuildOptions{Voxel: true})
	plain := m.Strip()
	for q := range plain.Reps {
		for i := range plain.Reps[q].Segments {
			if plain.Reps[q].Segments[i].Voxel() {
				t.Fatal("Strip left VOXEL data behind")
			}
		}
	}
	// The original is untouched.
	if !m.Segment(12, 0).Voxel() {
		t.Fatal("Strip mutated the source manifest")
	}
}

func TestBackwardCompatibleDecoding(t *testing.T) {
	// A VOXEL manifest parsed and re-encoded without the custom attributes
	// must still decode — the compatibility path for unaware clients.
	v := smallVideo(t, "BBB", 2)
	m := Build(v, BuildOptions{Voxel: true, PointsPerSegment: 4})
	data, err := m.Strip().EncodeMPD()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMPD(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Segment(12, 0).Voxel() {
		t.Fatal("plain manifest decoded with VOXEL data")
	}
	if got.Segment(12, 0).Bytes != m.Segment(12, 0).Bytes {
		t.Fatal("sizes lost")
	}
}

func TestParseRangeErrors(t *testing.T) {
	bad := []string{"", "5", "a-b", "9-3", "5-"}
	for _, s := range bad {
		if _, _, err := parseRange(s); err == nil {
			t.Errorf("parseRange(%q) should fail", s)
		}
	}
	if _, err := parsePoints("0.9:5"); err == nil {
		t.Error("malformed tuple should fail")
	}
	if _, err := parsePoints("x:1:2"); err == nil {
		t.Error("bad score should fail")
	}
}

func TestPropertyRangeListRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		var ranges [][2]int
		cur := 0
		for _, r := range raw {
			start := cur + int(r%100)
			end := start + int(r>>8%100) + 1
			ranges = append(ranges, [2]int{start, end})
			cur = end + 1
		}
		got, err := parseRangeList(formatRangeList(ranges))
		if err != nil {
			return false
		}
		if len(got) != len(ranges) {
			return len(ranges) == 0 && len(got) == 0
		}
		for i := range got {
			if got[i] != ranges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

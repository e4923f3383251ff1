package dash

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"testing"

	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/video"
)

// manifestBits hashes everything offline preparation computes for a
// manifest — every point, range and BETA level, floats by their bits — so
// two manifests hash equal only if no prepared bit differs.
func manifestBits(m *Manifest) string {
	h := sha256.New()
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	putRanges := func(rs [][2]int) {
		put(len(rs))
		for _, r := range rs {
			put(r[0], r[1])
		}
	}
	for _, rep := range m.Reps {
		for _, seg := range rep.Segments {
			put(len(seg.Points))
			for _, p := range seg.Points {
				binary.Write(h, binary.LittleEndian, math.Float64bits(p.Score))
				put(p.Frames, p.Bytes)
			}
			put(seg.ReliableSize)
			putRanges(seg.Reliable)
			putRanges(seg.Unreliable)
			put(seg.Beta.Bytes, seg.Beta.Frames)
			binary.Write(h, binary.LittleEndian, math.Float64bits(seg.Beta.Score))
			putRanges(seg.Beta.Ranges)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestManifestBitsPinned pins the prepared bits of the four test titles
// under all three metrics, with the full curve and thinned to 12 points, to
// literals computed before preparation was made incremental, shared and
// parallel (PR 20): those are optimisations, and may not move a bit.
func TestManifestBitsPinned(t *testing.T) {
	pinned := []struct {
		title      string
		metric     qoe.Metric
		full, thin string
	}{
		{"BBB", qoe.SSIM, "1a1cb120aaf7f715", "aa2ee1c4b00d158b"},
		{"BBB", qoe.VMAF, "4600e4535aeb4d40", "e986dcc89789a032"},
		{"BBB", qoe.PSNR, "2849ac49e7ce8b6f", "f4ee0468cd5e6530"},
		{"ED", qoe.SSIM, "0aab21b0e6c0db2c", "aa615bc3da3f6b30"},
		{"ED", qoe.VMAF, "aa25b458ee0a34d4", "f311fcbfd8bde033"},
		{"ED", qoe.PSNR, "1c2fa7b96440ff27", "92114aad52132da2"},
		{"Sintel", qoe.SSIM, "b44ca9dd1016db90", "6e6bca95b3547c40"},
		{"Sintel", qoe.VMAF, "8de5faf9d1c03e79", "ae25af0e883209fe"},
		{"Sintel", qoe.PSNR, "22f3ff7d7656bb94", "5044b084f0b59e83"},
		{"ToS", qoe.SSIM, "7aece1fdc96fa5fa", "3647288ac8d2ab88"},
		{"ToS", qoe.VMAF, "acd30e1484b2b37f", "0e672c11ca245bbb"},
		{"ToS", qoe.PSNR, "ae9a80ce53f9ec09", "31f2a13bd48eb3f3"},
	}
	for _, c := range pinned {
		a := &prep.Analyzer{Model: qoe.DefaultModel, Metric: c.metric}
		for _, b := range []struct {
			points int
			want   string
		}{{0, c.full}, {12, c.thin}} {
			m := Build(video.MustLoad(c.title), BuildOptions{Voxel: true, PointsPerSegment: b.points, Analyzer: a})
			if got := manifestBits(m); got != b.want {
				t.Errorf("%s/%v, %d points per segment: prepared bits %s, pinned %s", c.title, c.metric, b.points, got, b.want)
			}
		}
	}
}

// TestMPDBytesPinned pins the MPD text of the four titles as the experiments
// prepare them (full length, SSIM, 12 points per segment) to hashes taken
// before the attribute encoders stopped building a string per range and per
// point: how the bytes are written may change, the bytes may not.
func TestMPDBytesPinned(t *testing.T) {
	pinned := []struct{ title, sha256 string }{
		{"BBB", "84d9551a0e3be1b8bb64b83babed9ee2c9f99b6f41952f094c6ebde04e82174d"},
		{"ToS", "a7054c1046f0455b8ba02e281c31a856ba9bedbd3632f3cae3b3f76b9586e46c"},
		{"ED", "bd296bcc74ddd7de932010fd1caade6ec725d12842618b070149f46b3e3718a5"},
		{"Sintel", "bc3f35a1cde16d13ba5c56adff24ec01c4b7493f3364e08761d12f25bd55a126"},
	}
	for _, c := range pinned {
		m := Build(video.MustLoad(c.title), BuildOptions{Voxel: true, PointsPerSegment: 12, Analyzer: prep.NewAnalyzer()})
		mpd, err := m.EncodeMPD()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(mpd); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s: MPD sha256 %x, pinned %s", c.title, sum, c.sha256)
		}
	}
}

// TestBuildSameBytesAtAnyParallelism: the worker count is GOMAXPROCS and
// nothing else, and it does not show in the result.
func TestBuildSameBytesAtAnyParallelism(t *testing.T) {
	build := func(procs int) (*Manifest, []byte, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := Build(smallVideo(t, "Sintel", 9), BuildOptions{Voxel: true, PointsPerSegment: 12})
		mpd, err := m.EncodeMPD()
		if err != nil {
			t.Fatal(err)
		}
		return m, mpd, m.EncodeCompact()
	}
	want, wantMPD, wantCompact := build(1)
	for _, procs := range []int{2, 8} {
		got, mpd, compact := build(procs)
		if !reflect.DeepEqual(got.Reps, want.Reps) {
			t.Errorf("GOMAXPROCS=%d: manifest differs from GOMAXPROCS=1", procs)
		}
		if !bytes.Equal(mpd, wantMPD) || !bytes.Equal(compact, wantCompact) {
			t.Errorf("GOMAXPROCS=%d: encoded bytes differ from GOMAXPROCS=1", procs)
		}
	}
}

// TestColdPreparationMallocBudget: a cold preparation of the fig6-matrix
// titles (BBB and ToS, 25 segments, 12 points) did 266 k mallocs while every
// curve point re-scored the whole segment, every segment rebuilt the GOP
// graph and every synthesis allocated its generator; about 26 k since.
func TestColdPreparationMallocBudget(t *testing.T) {
	mallocs := testing.AllocsPerRun(2, func() {
		for _, title := range []string{"BBB", "ToS"} {
			Build(smallVideo(t, title, 25), BuildOptions{Voxel: true, PointsPerSegment: 12})
		}
	})
	if mallocs > 55000 {
		t.Fatalf("a cold fig6-matrix preparation does %.0f mallocs, budget 55000", mallocs)
	}
	t.Logf("%.0f mallocs", mallocs)
}

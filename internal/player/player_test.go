package player

import (
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/netem"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/trace"
	"voxel/internal/video"
)

type rig struct {
	s  *sim.Sim
	pl *Player
	v  *video.Video
	m  *dash.Manifest
}

func buildRig(t *testing.T, tr *trace.Trace, queue int, segs int, cfg Config) *rig {
	t.Helper()
	return buildRigView(t, tr, queue, segs, cfg, func(m *dash.Manifest) *dash.Manifest { return m })
}

// buildRigView is buildRig with the player reading view(m) — say, a stripped
// copy — of the manifest m the origin serves.
func buildRigView(t *testing.T, tr *trace.Trace, queue int, segs int, cfg Config, view func(*dash.Manifest) *dash.Manifest) *rig {
	t.Helper()
	s := sim.New(99)
	path := netem.NewPath(s, tr, queue)
	cc, sc := quic.NewPair(s, path, quic.Config{}, quic.Config{})
	v := video.MustLoad("BBB")
	v.Segments = segs
	m := dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: 10, Analyzer: prep.NewAnalyzer()})
	if _, err := server.New(sc, m, httpsim.ServerOptions{}); err != nil {
		t.Fatal(err)
	}
	pl := New(s, cc, v, view(m), cfg)
	return &rig{s: s, pl: pl, v: v, m: m}
}

func (r *rig) run(t *testing.T, limit time.Duration) *Results {
	t.Helper()
	r.pl.Run(nil)
	r.s.RunUntil(limit)
	if !r.pl.Done() {
		t.Fatalf("playback did not finish: %d/%d segments, buffer state stuck",
			len(r.pl.Results().Segments), r.m.NumSegments())
	}
	return r.pl.Results()
}

func TestReliablePlaybackGoodNetwork(t *testing.T) {
	tr := trace.Constant("c", 20e6, 600)
	r := buildRig(t, tr, 64, 8, Config{Algorithm: abr.NewBola(), Mode: ModeReliable, BufferSegments: 5})
	res := r.run(t, 10*time.Minute)
	if len(res.Segments) != 8 {
		t.Fatalf("%d segments played", len(res.Segments))
	}
	if res.BufRatio() > 0.01 {
		t.Fatalf("bufRatio %.3f on a 20 Mbps link", res.BufRatio())
	}
	// 20 Mbps affords high quality for most segments after startup.
	last := res.Segments[len(res.Segments)-1]
	if last.Quality < 8 {
		t.Fatalf("final quality %v, want high on 20 Mbps", last.Quality)
	}
	// All segments complete: no skipped data.
	if res.SkippedFraction() > 0.001 {
		t.Fatalf("skipped %.4f on a reliable run", res.SkippedFraction())
	}
	for _, seg := range res.Segments {
		// Early segments may ride low rungs whose base SSIM is modest.
		if seg.Score <= 0.5 || seg.Score > 1 {
			t.Fatalf("segment %d score %.3f out of range", seg.Index, seg.Score)
		}
	}
}

func TestVoxelPlaybackGoodNetwork(t *testing.T) {
	tr := trace.Constant("c", 20e6, 600)
	r := buildRig(t, tr, 64, 8, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 5})
	res := r.run(t, 10*time.Minute)
	if res.BufRatio() > 0.01 {
		t.Fatalf("bufRatio %.3f", res.BufRatio())
	}
	if res.MeanScore() < 0.9 {
		t.Fatalf("mean score %.3f too low for 20 Mbps", res.MeanScore())
	}
}

func TestVoxelSurvivesStarvedNetwork(t *testing.T) {
	// 0.4 Mbps cannot even sustain Q0 in real time comfortably — playback
	// must still complete (with stalls), never wedge.
	tr := trace.Constant("slow", 0.4e6, 3600)
	r := buildRig(t, tr, 32, 4, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 2})
	res := r.run(t, 30*time.Minute)
	if len(res.Segments) != 4 {
		t.Fatalf("%d segments played", len(res.Segments))
	}
}

func TestVoxelOutperformsBolaOnBadNetwork(t *testing.T) {
	// A choppy trace: VOXEL should rebuffer less than BOLA/QUIC.
	mk := func() *trace.Trace { return trace.TMobile() }
	bola := buildRig(t, mk(), 32, 10, Config{Algorithm: abr.NewBola(), Mode: ModeReliable, BufferSegments: 2})
	resB := bola.run(t, 30*time.Minute)
	voxel := buildRig(t, mk(), 32, 10, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 2})
	resV := voxel.run(t, 30*time.Minute)
	if resV.BufRatio() > resB.BufRatio()+0.02 {
		t.Fatalf("VOXEL bufRatio %.3f worse than BOLA %.3f", resV.BufRatio(), resB.BufRatio())
	}
}

func TestOpaqueModeDeliversWithHoles(t *testing.T) {
	// Q* with vanilla BOLA on a tight queue: unreliable bodies lose data
	// but segments still complete and scores reflect the damage.
	tr := trace.Constant("c", 6e6, 3600)
	r := buildRig(t, tr, 8, 6, Config{Algorithm: abr.NewBola(), Mode: ModeOpaque, BufferSegments: 3})
	res := r.run(t, 20*time.Minute)
	if len(res.Segments) != 6 {
		t.Fatalf("%d segments", len(res.Segments))
	}
	for _, seg := range res.Segments {
		if seg.Score < 0 || seg.Score > 1 {
			t.Fatalf("score %.3f out of range", seg.Score)
		}
	}
}

func TestStallAccounting(t *testing.T) {
	// 1-segment buffer over a link slower than the lowest bitrate: stalls
	// are inevitable and bufRatio must be positive.
	tr := trace.Constant("slow", 0.1e6, 7200)
	r := buildRig(t, tr, 32, 3, Config{Algorithm: abr.NewBola(), Mode: ModeReliable, BufferSegments: 1})
	res := r.run(t, 2*time.Hour)
	if res.StallTime == 0 {
		t.Fatal("expected stalls on a 0.1 Mbps link")
	}
	if res.BufRatio() <= 0 {
		t.Fatal("bufRatio must be positive")
	}
}

func TestVirtualLevelsUsedUnderPressure(t *testing.T) {
	// Bandwidth between rungs pushes ABR* toward partial segments.
	tr := trace.Constant("c", 3.6e6, 3600)
	r := buildRig(t, tr, 32, 10, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 3})
	res := r.run(t, 20*time.Minute)
	virtual := 0
	for _, seg := range res.Segments {
		if seg.Virtual {
			virtual++
		}
	}
	if virtual == 0 {
		t.Log("no virtual segments chosen (acceptable but unexpected)")
	}
	if res.BufRatio() > 0.2 {
		t.Fatalf("bufRatio %.3f too high for 3.6 Mbps", res.BufRatio())
	}
}

func TestQualitySwitchCounting(t *testing.T) {
	tr := trace.Constant("c", 8e6, 600)
	r := buildRig(t, tr, 64, 6, Config{Algorithm: abr.NewBola(), Mode: ModeReliable, BufferSegments: 4})
	res := r.run(t, 10*time.Minute)
	count := 0
	for i := 1; i < len(res.Segments); i++ {
		if res.Segments[i].Quality != res.Segments[i-1].Quality {
			count++
		}
	}
	if res.Switches != count {
		t.Fatalf("switches %d, counted %d", res.Switches, count)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeReliable.String() != "Q" || ModeOpaque.String() != "Q*" ||
		ModeVoxel.String() != "VOXEL" || ModeVoxelReliable.String() != "VOXEL-rel" ||
		ModeBeta.String() != "BETA" {
		t.Fatal("mode names wrong")
	}
}

func TestScoreUsesMetric(t *testing.T) {
	tr := trace.Constant("c", 12e6, 600)
	r := buildRig(t, tr, 64, 4, Config{
		Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 3, Metric: qoe.VMAF,
	})
	res := r.run(t, 10*time.Minute)
	for _, seg := range res.Segments {
		if seg.Score < 1.5 {
			t.Fatalf("VMAF score %.1f looks like SSIM", seg.Score)
		}
	}
}

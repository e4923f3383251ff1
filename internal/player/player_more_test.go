package player

import (
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/trace"
	"voxel/internal/video"
)

func TestBetaModeUsesItsVirtualLevel(t *testing.T) {
	// BETA over a link that affords its virtual level but not full
	// segments of the same quality.
	tr := trace.Constant("c", 5e6, 3600)
	r := buildRig(t, tr, 32, 10, Config{
		Algorithm: abr.NewBeta(), Mode: ModeBeta, BufferSegments: 3,
	})
	res := r.run(t, 20*time.Minute)
	virtual := 0
	for _, seg := range res.Segments {
		if seg.Virtual {
			virtual++
		}
	}
	if virtual == 0 {
		t.Fatal("BETA never used its virtual level")
	}
	// BETA's virtual level only skips unreferenced B bodies, so skipped
	// data must stay modest (< ~20% of bytes).
	if res.SkippedFraction() > 0.25 {
		t.Fatalf("BETA skipped %.3f — more than its B-frame budget", res.SkippedFraction())
	}
}

func TestVoxelReliableModeNeverLosesData(t *testing.T) {
	// ABR* decisions over a fully reliable transport (Fig. 18c,d): target
	// bytes arrive exactly; no transport losses.
	tr := trace.Constant("c", 5e6, 3600)
	r := buildRig(t, tr, 16, 8, Config{
		Algorithm: abr.NewABRStar(), Mode: ModeVoxelReliable, BufferSegments: 3,
	})
	res := r.run(t, 20*time.Minute)
	for _, seg := range res.Segments {
		if seg.LostBytes > 0 {
			t.Fatalf("segment %d lost %d bytes on a reliable transport", seg.Index, seg.LostBytes)
		}
	}
}

func TestSelectiveRetxRecoversLosses(t *testing.T) {
	// A tight queue forces unreliable-stream losses; with a large buffer
	// the player has idle time to re-request them (§4.2).
	tr := trace.Constant("c", 8e6, 3600)
	runWith := func(disable bool) *Results {
		r := buildRig(t, tr, 10, 10, Config{
			Algorithm: abr.NewABRStar(), Mode: ModeVoxel,
			BufferSegments: 6, DisableSelectiveRetx: disable,
		})
		return r.run(t, 30*time.Minute)
	}
	with := runWith(false)
	without := runWith(true)
	if with.RecoveredBytes == 0 {
		t.Skip("no losses occurred to recover on this path")
	}
	if without.RecoveredBytes != 0 {
		t.Fatal("disabled selective retx still recovered bytes")
	}
	if with.ResidualLossFraction() > without.ResidualLossFraction() {
		t.Fatalf("selective retx made residual loss worse: %.4f vs %.4f",
			with.ResidualLossFraction(), without.ResidualLossFraction())
	}
}

func TestRestartAccountsWaste(t *testing.T) {
	// BOLA on a trace that collapses mid-segment must restart at least
	// once across the session and account wasted bytes.
	samples := make([]float64, 3600)
	for i := range samples {
		if i%12 < 6 {
			samples[i] = 12e6
		} else {
			samples[i] = 0.5e6
		}
	}
	tr := trace.MustNew("sawtooth", samples)
	r := buildRig(t, tr, 32, 12, Config{Algorithm: abr.NewBola(), Mode: ModeReliable, BufferSegments: 2})
	res := r.run(t, 40*time.Minute)
	restarts := 0
	for _, seg := range res.Segments {
		restarts += seg.Restarts
	}
	if restarts > 0 && res.BytesWasted == 0 {
		t.Fatal("restarts occurred but no waste accounted")
	}
	if restarts == 0 {
		t.Log("no restarts on this trace (acceptable)")
	}
}

func TestResultsInvariants(t *testing.T) {
	tr := trace.Verizon()
	r := buildRig(t, tr, 32, 10, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 2})
	res := r.run(t, 30*time.Minute)
	if res.PlayDuration != time.Duration(10)*video.SegmentDuration {
		t.Fatalf("play duration %v", res.PlayDuration)
	}
	if res.BufRatio() < 0 {
		t.Fatal("negative bufRatio")
	}
	if res.ChosenBytes < res.BytesReceived-int64(res.RecoveredBytes) {
		t.Fatalf("chosen %d < received %d", res.ChosenBytes, res.BytesReceived)
	}
	if res.SkippedFraction() < 0 || res.SkippedFraction() > 1 {
		t.Fatalf("skipped fraction %v", res.SkippedFraction())
	}
	if res.ResidualLossFraction() < 0 || res.ResidualLossFraction() > 1 {
		t.Fatalf("residual %.4f out of range", res.ResidualLossFraction())
	}
	if res.LostInTransit < 0 {
		t.Fatalf("negative in-transit losses %d", res.LostInTransit)
	}
	if got := len(res.Scores()); got != len(res.Segments) {
		t.Fatalf("scores len %d", got)
	}
	if res.MeanScore() <= 0 || res.AvgBitrate() <= 0 {
		t.Fatal("degenerate aggregate metrics")
	}
}

func TestTputAlgorithmEndToEnd(t *testing.T) {
	tr := trace.Constant("c", 6e6, 600)
	r := buildRig(t, tr, 32, 6, Config{Algorithm: abr.NewTput(), Mode: ModeReliable, BufferSegments: 3})
	res := r.run(t, 10*time.Minute)
	if len(res.Segments) != 6 {
		t.Fatalf("%d segments", len(res.Segments))
	}
}

func TestMPCAlgorithmEndToEnd(t *testing.T) {
	tr := trace.Constant("c", 8e6, 600)
	r := buildRig(t, tr, 32, 6, Config{Algorithm: abr.NewMPC(), Mode: ModeOpaque, BufferSegments: 3})
	res := r.run(t, 10*time.Minute)
	if len(res.Segments) != 6 {
		t.Fatalf("%d segments", len(res.Segments))
	}
	// MPC ramps up with history; the last segment should beat the first.
	if res.Segments[5].Quality < res.Segments[0].Quality {
		t.Fatalf("MPC did not ramp: %v → %v", res.Segments[0].Quality, res.Segments[5].Quality)
	}
}

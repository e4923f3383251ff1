package voxel

import (
	"testing"

	"voxel/internal/survey"
)

func TestLoadVideoFacade(t *testing.T) {
	v, err := LoadVideo("BBB")
	if err != nil || v.Title != "BBB" {
		t.Fatalf("LoadVideo: %v", err)
	}
	if _, err := LoadVideo("nope"); err == nil {
		t.Fatal("unknown title should fail")
	}
	if len(Titles()) != 4 || len(YouTubeTitles()) != 10 {
		t.Fatal("catalog sizes wrong")
	}
}

func TestLoadTraceFacade(t *testing.T) {
	for _, n := range TraceNames() {
		if _, err := LoadTrace(n); err != nil {
			t.Fatalf("LoadTrace(%s): %v", n, err)
		}
	}
}

func TestPrepareManifestFacade(t *testing.T) {
	v, _ := LoadVideo("ToS")
	v.Segments = 3
	m := PrepareManifest(v, SSIM, 8)
	if m.NumSegments() != 3 {
		t.Fatalf("segments %d", m.NumSegments())
	}
	if !m.Segment(12, 0).Voxel() {
		t.Fatal("manifest should be enriched")
	}
	// One point per segment is the full segment, not a division by zero.
	seg := PrepareManifest(v, SSIM, 1).Segment(12, 0)
	if len(seg.Points) != 1 || seg.Points[0].Bytes != seg.Bytes || seg.Points[0].Frames != 96 {
		t.Fatalf("one-point curve is %+v, want the full %d-byte segment", seg.Points, seg.Bytes)
	}
}

func TestDropToleranceFacade(t *testing.T) {
	v, _ := LoadVideo("P9")
	v.Segments = 5
	tol := DropTolerance(v, 12, 0.99)
	if len(tol) != 5 {
		t.Fatalf("%d entries", len(tol))
	}
	for _, x := range tol {
		if x < 0 || x > 1 {
			t.Fatalf("tolerance %v out of range", x)
		}
	}
}

func TestSessionFacade(t *testing.T) {
	tr, _ := LoadTrace("verizon")
	agg, _, err := New("BBB",
		WithSystem(VOXEL),
		WithTrace(tr),
		WithBuffer(2),
		WithTrials(1),
		WithSegments(4),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Trials) != 1 || !agg.Trials[0].Completed {
		t.Fatal("session run did not complete")
	}
	sum := Summarize(agg.BufRatios)
	if sum.N != 1 {
		t.Fatal("summary wrong")
	}
	if _, _, err := New("").Run(); err == nil {
		t.Fatal("missing title should fail")
	}
}

func TestSurveyFacade(t *testing.T) {
	b, v := survey.PaperClips()
	out := RunSurvey(54, 1, b, v)
	if out.PreferB <= 0.5 {
		t.Fatalf("preference %v", out.PreferB)
	}
}

func TestClipFromAggregate(t *testing.T) {
	tr, _ := LoadTrace("3g")
	agg, _, err := New("ToS", WithSystem(BOLA), WithTrace(tr),
		WithBuffer(1), WithTrials(1), WithSegments(4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	c := ClipFromAggregate(agg)
	if c.MeanScore <= 0 || c.MeanScore > 1 {
		t.Fatalf("clip score %v", c.MeanScore)
	}
}

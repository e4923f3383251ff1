package qoe_test

import (
	"math/rand"
	"testing"

	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/video"
)

var metrics = []qoe.Metric{qoe.SSIM, qoe.VMAF, qoe.PSNR}

// TestTrackerMatchesScoreAlongCurves walks the three §4.1 download orders
// the way the offline analysis does — everything but the I-frame lost, then
// one frame arriving at a time — and requires the incremental score to be
// the one-shot score of the same loss vector at every step. Equal means ==:
// manifests are pinned by their bits.
func TestTrackerMatchesScoreAlongCurves(t *testing.T) {
	m := qoe.DefaultModel
	for _, title := range video.TestTitles() {
		v := video.MustLoad(title)
		for _, q := range []video.Quality{0, 6, 12} {
			for _, idx := range []int{0, 7, 33, 74} {
				s := v.Segment(idx, q)
				for _, metric := range metrics {
					for _, o := range prep.Orderings() {
						loss := make([]float64, len(s.Frames))
						for i := 1; i < len(loss); i++ {
							loss[i] = 1
						}
						tr := m.Track(metric, s, loss)
						order := prep.MustOrder(s, o)
						for k := 0; ; k++ {
							if got, want := tr.Score(), m.Score(metric, s, loss); got != want {
								t.Fatalf("%s seg %d Q%d %v %v, %d frames kept: tracker %v, Score %v", title, idx, q, metric, o, k+1, got, want)
							}
							if k+1 == len(order) {
								break
							}
							loss[order[k+1]] = 0
							tr.SetLoss(order[k+1], 0)
						}
					}
				}
			}
		}
	}
}

// TestTrackerMatchesScoreOnRandomWalk changes any frame (the I-frame too) to
// any loss in any order — arrived, lost, lost again after arriving,
// partially delivered, and values outside [0,1] that the model clamps.
func TestTrackerMatchesScoreOnRandomWalk(t *testing.T) {
	m := qoe.DefaultModel
	rng := rand.New(rand.NewSource(20))
	for _, title := range []string{"Sintel", "P9", "P10"} {
		s := video.MustLoad(title).Segment(rng.Intn(video.DefaultSegments), video.Quality(rng.Intn(video.NumQualities)))
		for _, metric := range metrics {
			loss := make([]float64, len(s.Frames))
			for i := range loss {
				loss[i] = rng.Float64()
			}
			tr := m.Track(metric, s, loss)
			for step := 0; step < 2000; step++ {
				f := rng.Intn(len(loss))
				switch rng.Intn(5) {
				case 0:
					loss[f] = 0
				case 1:
					loss[f] = 1
				case 2:
					loss[f] = rng.Float64()
				case 3:
					loss[f] = -rng.Float64()
				default:
					loss[f] = 1 + rng.Float64()
				}
				tr.SetLoss(f, loss[f])
				if got, want := tr.Score(), m.Score(metric, s, loss); got != want {
					t.Fatalf("%s %v step %d (frame %d := %v): tracker %v, Score %v", title, metric, step, f, loss[f], got, want)
				}
			}
		}
	}
}

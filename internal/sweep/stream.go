package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"voxel/internal/exp"
	"voxel/internal/stats"
)

// StreamAgg is the streaming-mode aggregate: the three per-trial sample
// families exp.Aggregate keeps as raw slices — bufRatio, average bitrate,
// per-segment QoE score — folded into mergeable quantile sketches instead,
// plus trial counters. Memory is O(buckets) per sketch regardless of trial
// count, which is the point: a million-trial campaign aggregates in the
// same footprint as a ten-trial one.
//
// Every quantile read off a StreamAgg is within the sketch's relative
// error bound α of the exact sample quantile (stats.QuantileSketch pins
// the guarantee with a test); counts, Min, and Max are exact. Trials fold
// in increasing trial order (exp's delivery contract), so sketch state —
// including the float Sum — is bit-identical across parallelism levels and
// across kill/resume, and shard sketches merge to the whole-campaign
// sketch exactly.
type StreamAgg struct {
	Alpha    float64               `json:"alpha"`
	Trials   int                   `json:"trials"` // trials folded in (including failed)
	Failed   int                   `json:"failed"` // failed trials (no samples contributed)
	Scores   uint64                `json:"scores"` // per-segment score samples folded
	BufRatio *stats.QuantileSketch `json:"buf_ratio"`
	Bitrate  *stats.QuantileSketch `json:"bitrate"`
	Score    *stats.QuantileSketch `json:"score"`
}

// NewStreamAgg builds an empty streaming aggregate whose sketches carry the
// relative-error bound stats.DefaultSketchAlpha.
func NewStreamAgg() *StreamAgg {
	mk := func() *stats.QuantileSketch { return stats.NewQuantileSketch(stats.DefaultSketchAlpha) }
	return &StreamAgg{Alpha: stats.DefaultSketchAlpha, BufRatio: mk(), Bitrate: mk(), Score: mk()}
}

// add accumulates one completed trial, in delivery (trial) order, and keeps
// nothing else of it.
func (s *StreamAgg) add(_ int, tr exp.Trial, te *exp.TrialError) {
	s.Trials++
	if te != nil {
		s.Failed++
		return
	}
	s.BufRatio.Add(tr.BufRatio)
	s.Bitrate.Add(tr.AvgBitrate)
	for _, sc := range tr.Scores {
		s.Score.Add(sc)
		s.Scores++
	}
}

// The sketch state is the whole checkpoint body: saving shares it, loading
// merges the file's into this one (exactly — see Merge).
func (s *StreamAgg) save(cp *Checkpoint)       { cp.Sketch = s }
func (s *StreamAgg) load(cp *Checkpoint) error { return s.Merge(cp.Sketch) }

func (s *StreamAgg) result() (*exp.Aggregate, *StreamAgg) { return nil, s }

// Merge folds other into s; the sketches refuse a different α. Bucket
// counts add, so the merged quantiles equal a single sketch fed every
// shard's samples.
func (s *StreamAgg) Merge(other *StreamAgg) error {
	if other == nil {
		return nil
	}
	if err := s.BufRatio.Merge(other.BufRatio); err != nil {
		return err
	}
	if err := s.Bitrate.Merge(other.Bitrate); err != nil {
		return err
	}
	if err := s.Score.Merge(other.Score); err != nil {
		return err
	}
	s.Trials += other.Trials
	s.Failed += other.Failed
	s.Scores += other.Scores
	return nil
}

// Summary renders the headline statistics in the same shape voxel-sim
// prints for a classic aggregate, with the error bound stated.
func (s *StreamAgg) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "streaming aggregate (%d trials, %d failed, α=%g):\n",
		s.Trials, s.Failed, s.Alpha)
	line := func(name string, sk *stats.QuantileSketch, scale float64) {
		fmt.Fprintf(&sb, "  %-9s mean=%s p50=%s p90=%s p99=%s (n=%d)\n", name,
			fnum(sk.Mean()/scale), fnum(sk.Quantile(0.5)/scale),
			fnum(sk.Quantile(0.9)/scale), fnum(sk.Quantile(0.99)/scale), sk.Count())
	}
	line("bufRatio", s.BufRatio, 1)
	line("bitrate(Mbps)", s.Bitrate, 1e6)
	line("score", s.Score, 1)
	return sb.String()
}

func fnum(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }

// Package qoe models the perceptual-quality metrics (SSIM, VMAF, PSNR) the
// paper computes with FFmpeg against a pristine 4K reference.
//
// Without real decoded video, quality is modelled analytically in two
// parts, both documented in DESIGN.md:
//
//  1. Encoding distortion: a rate–distortion curve maps (segment bitrate,
//     content complexity) to a base score. It is calibrated to the paper's
//     anchor points — Q12 segments sit at SSIM ≥ 0.99, most Q9 segments
//     fall just below 0.99 (Fig. 1d), and lower rungs degrade further.
//  2. Loss distortion: a dropped or partially delivered frame is concealed
//     (previous-frame copy / zero-padding, §4.2), contributing an error
//     proportional to the frame's motion; the error propagates along the
//     H.264 reference graph with decay, so losing a heavily referenced
//     frame hurts far more than losing an unreferenced B frame.
//
// Segment scores are the mean over frames, matching the paper's use of the
// segment-average SSIM.
package qoe

import (
	"fmt"
	"math"
	"sync"

	"voxel/internal/video"
)

// errsPool recycles per-frame error scratch across scoring calls. QoE is
// evaluated once per candidate delivery state inside the ABR loop, so the
// per-call []float64 dominated the package's allocations.
var errsPool = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

// getErrs returns a zeroed length-n scratch slice from the pool.
//
//voxel:pool-get put=putErrs
func getErrs(n int) *[]float64 {
	p := errsPool.Get().(*[]float64)
	s := *p
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*p = s
	return p
}

func putErrs(p *[]float64) { errsPool.Put(p) }

// Metric selects the quality metric; VOXEL is QoE-metric-agnostic (§4.3)
// and the evaluation repeats key experiments under all three.
type Metric int

// The supported metrics.
const (
	SSIM Metric = iota
	VMAF
	PSNR
)

func (m Metric) String() string {
	switch m {
	case SSIM:
		return "SSIM"
	case VMAF:
		return "VMAF"
	default:
		return "PSNR"
	}
}

// Perfect returns the metric's perfect score (1.0, 100, or the PSNR cap).
func (m Metric) Perfect() float64 {
	switch m {
	case SSIM:
		return 1.0
	case VMAF:
		return 100.0
	default:
		return psnrCap
	}
}

// Model holds the calibration constants. The zero value is unusable; use
// DefaultModel.
type Model struct {
	// EncCoeff scales encoding distortion: D = EncCoeff·complexity/Mbps.
	EncCoeff float64
	// ConcealErr scales the error of a fully concealed (dropped) frame:
	// err = ConcealErr·motion.
	ConcealErr float64
	// IConcealErr is the error of a lost I-frame: with nothing to predict
	// from, the decoder can only repeat the previous segment's content, so
	// the damage is largely motion-independent.
	IConcealErr float64
	// Propagation is the per-hop decay of errors along the reference graph.
	Propagation float64
	// ErrCap bounds the distortion a single frame can contribute.
	ErrCap float64
}

// DefaultModel is the calibration used throughout the evaluation.
var DefaultModel = Model{
	EncCoeff:    0.09,
	ConcealErr:  0.15,
	IConcealErr: 0.3,
	Propagation: 0.8,
	ErrCap:      0.4,
}

// BaseDistortion returns the encoding-only distortion of a segment
// (1 − base SSIM).
func (m Model) BaseDistortion(s *video.Segment) float64 {
	mbps := s.Bitrate() / 1e6
	if mbps < 0.01 {
		mbps = 0.01
	}
	d := m.EncCoeff * s.Complexity / mbps
	if d > 0.9 {
		d = 0.9
	}
	return d
}

// BaseSSIM returns the segment's SSIM when delivered in full.
func (m Model) BaseSSIM(s *video.Segment) float64 {
	return 1 - m.BaseDistortion(s)
}

// FrameErrors computes the per-frame loss distortion for a delivery state.
// frameLoss[i] is the fraction of frame i's body that is missing (0 =
// intact, 1 = fully dropped). Errors propagate along the reference graph in
// decode order with decay; a frame inheriting error from multiple
// references takes the worst one.
func (m Model) FrameErrors(s *video.Segment, frameLoss []float64) []float64 {
	errs := make([]float64, len(s.Frames))
	m.frameErrorsInto(errs, s, frameLoss)
	return errs
}

// frameErrorsInto is FrameErrors writing into caller-provided scratch;
// errs must have length len(s.Frames).
func (m Model) frameErrorsInto(errs []float64, s *video.Segment, frameLoss []float64) {
	if n := len(s.Frames); len(frameLoss) != n {
		panic(fmt.Sprintf("qoe: frameLoss has %d entries for %d frames", len(frameLoss), n))
	}
	// References first; B frames reference the next anchor, so index order
	// would not do.
	for _, i := range s.EvalOrder() {
		errs[i] = m.frameError(s, errs, i, frameLoss[i])
	}
}

// frameError is the loss distortion of frame i given the fraction of it
// that is missing and the errors of the frames it references. It is the one
// per-frame formula: frameErrorsInto drives it over every frame,
// Tracker.SetLoss over the frames a change can reach.
func (m Model) frameError(s *video.Segment, errs []float64, i int, loss float64) float64 {
	f := &s.Frames[i]
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	own := m.ConcealErr * f.Motion * loss
	if f.Type == video.IFrame {
		own = (m.IConcealErr + m.ConcealErr*f.Motion) * loss
	}
	inherited := 0.0
	for _, r := range f.Refs {
		if e := errs[r] * m.Propagation; e > inherited {
			inherited = e
		}
	}
	e := own + inherited
	if e > m.ErrCap {
		e = m.ErrCap
	}
	return e
}

// SegmentSSIM returns the segment SSIM for a delivery state (see
// FrameErrors for frameLoss semantics).
//
//voxel:allocfree
func (m Model) SegmentSSIM(s *video.Segment, frameLoss []float64) float64 {
	base := m.BaseSSIM(s)
	scratch := getErrs(len(s.Frames))
	defer putErrs(scratch)
	errs := *scratch
	m.frameErrorsInto(errs, s, frameLoss)
	var sum float64
	for _, e := range errs {
		v := base - e
		if v < 0 {
			v = 0
		}
		sum += v
	}
	return sum / float64(len(errs))
}

// ssimFromDistortion is a frame's SSIM: what encoding and loss leave of 1.
func ssimFromDistortion(base, e float64) float64 {
	v := 1 - base - e
	if v < 0 {
		v = 0
	}
	return v
}

// frameScore is one frame's term of the segment score: the metric's reading
// of the frame's encoding distortion plus loss error.
func (metric Metric) frameScore(base, e float64) float64 {
	switch metric {
	case SSIM:
		return ssimFromDistortion(base, e)
	case VMAF:
		return vmafFromDistortion(base + e)
	default:
		return psnrFromDistortion(base + e)
	}
}

// Score evaluates the segment under the chosen metric for a delivery state:
// the mean over frames of frameScore, summed in index order. VMAF and PSNR
// are monotone transforms of the same underlying distortion, with their own
// curvature, mirroring how the paper treats VOXEL as QoE-metric-agnostic.
//
//voxel:allocfree
func (m Model) Score(metric Metric, s *video.Segment, frameLoss []float64) float64 {
	base := m.BaseDistortion(s)
	scratch := getErrs(len(s.Frames))
	defer putErrs(scratch)
	errs := *scratch
	m.frameErrorsInto(errs, s, frameLoss)
	// One loop per metric keeps the dispatch out of the per-frame work: Score
	// runs inside every trial.
	var sum float64
	switch metric {
	case SSIM:
		for _, e := range errs {
			sum += ssimFromDistortion(base, e)
		}
	case VMAF:
		for _, e := range errs {
			sum += vmafFromDistortion(base + e)
		}
	default:
		for _, e := range errs {
			sum += psnrFromDistortion(base + e)
		}
	}
	return sum / float64(len(errs))
}

// Tracker is the incremental form of Score, for a delivery state that
// changes one frame at a time (the offline bytes→QoE curve, §4.1). It keeps
// the per-frame errors and scores of the current state; a change to one
// frame's loss re-evaluates that frame and its transitive dependents only —
// by the formula and in the order Score uses — and the segment score is
// again the sum over all frames in index order, so Tracker.Score is
// bit-for-bit Model.Score of the same loss vector.
type Tracker struct {
	m      Model
	metric Metric
	s      *video.Segment
	base   float64
	loss   []float64
	errs   []float64 // per-frame loss distortion under loss
	scores []float64 // metric.frameScore(base, errs[i])
}

// Track starts tracking s at the given delivery state (see FrameErrors for
// frameLoss semantics); the slice is copied.
func (m Model) Track(metric Metric, s *video.Segment, frameLoss []float64) *Tracker {
	n := len(s.Frames)
	buf := make([]float64, 3*n)
	t := &Tracker{
		m: m, metric: metric, s: s, base: m.BaseDistortion(s),
		loss: buf[:n:n], errs: buf[n : 2*n : 2*n], scores: buf[2*n:],
	}
	m.frameErrorsInto(t.errs, s, frameLoss)
	copy(t.loss, frameLoss)
	for i, e := range t.errs {
		t.scores[i] = metric.frameScore(t.base, e)
	}
	return t
}

// SetLoss makes loss the missing fraction of frame f.
func (t *Tracker) SetLoss(f int, loss float64) {
	t.loss[f] = loss
	for _, i := range t.s.Affected(f) {
		if e := t.m.frameError(t.s, t.errs, i, t.loss[i]); e != t.errs[i] {
			t.errs[i] = e
			t.scores[i] = t.metric.frameScore(t.base, e)
		}
	}
}

// Score returns the segment score of the current state.
func (t *Tracker) Score() float64 {
	var sum float64
	for _, v := range t.scores {
		sum += v
	}
	return sum / float64(len(t.scores))
}

// PerfectDelivery returns a zero frame-loss vector for the segment.
func PerfectDelivery(s *video.Segment) []float64 {
	return make([]float64, len(s.Frames))
}

const psnrCap = 50.0

// vmafFromDistortion maps total distortion to the 0–100 VMAF scale with a
// steeper high-quality knee than SSIM, echoing VMAF's sensitivity.
func vmafFromDistortion(d float64) float64 {
	if d < 0 {
		d = 0
	}
	v := 100 * math.Exp(-28*d)
	if v < 0 {
		v = 0
	}
	return v
}

// psnrFromDistortion maps distortion to dB, capped at 50 dB for pristine
// frames.
func psnrFromDistortion(d float64) float64 {
	if d < 1e-6 {
		return psnrCap
	}
	p := psnrCap + 10*math.Log10(1/(1+2500*d))
	if p < 5 {
		p = 5
	}
	return p
}

// DropSet evaluates the common case "frames in drop are missing entirely":
// it builds the loss vector and returns the metric score.
//
//voxel:allocfree
func (m Model) DropSet(metric Metric, s *video.Segment, drop []int) float64 {
	scratch := getErrs(len(s.Frames))
	defer putErrs(scratch)
	loss := *scratch
	for _, i := range drop {
		loss[i] = 1
	}
	return m.Score(metric, s, loss)
}

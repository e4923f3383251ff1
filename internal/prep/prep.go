// Package prep implements the paper's offline content-preparation phase
// (§4.1): for every segment and quality it evaluates three candidate frame
// download orders, computes the mapping from bytes downloaded to the QoE
// score of the resulting partial segment, selects the ordering that reaches
// the required score with the fewest bytes, and emits the byte ranges and
// score tuples that enrich the DASH manifest (Listing 1).
//
// The three orderings:
//
//  1. Original — decode order as produced by the encoder; a premature stop
//     chops the segment tail.
//  2. Unreferenced frames last — frames without inbound references move to
//     the tail (closely resembling BETA's approach).
//  3. By inbound references — frames are ranked by how many frames depend
//     on them, directly or transitively; the tail holds the least-depended-
//     on frames. This is VOXEL's new ranking.
//
// I-frames always download first and, together with every frame's headers,
// travel reliably.
package prep

import (
	"fmt"
	"sort"

	"voxel/internal/qoe"
	"voxel/internal/video"
)

// Ordering selects one of the three §4.1 frame orders.
type Ordering int

// The candidate orderings.
const (
	OrderOriginal Ordering = iota
	OrderUnreferencedLast
	OrderByInboundRefs
)

func (o Ordering) String() string {
	switch o {
	case OrderOriginal:
		return "original"
	case OrderUnreferencedLast:
		return "unreferenced-last"
	default:
		return "inbound-refs"
	}
}

// Orderings lists all candidates in evaluation order.
func Orderings() []Ordering {
	return []Ordering{OrderOriginal, OrderUnreferencedLast, OrderByInboundRefs}
}

// Order returns the download order of frame indices for the segment under
// ordering o. The I-frame is always first; dropping proceeds from the tail.
// Unknown orderings are an error: plans are persisted, so a bad ordering
// value usually means a corrupt or newer plan file, not a programmer slip.
func Order(s *video.Segment, o Ordering) ([]int, error) {
	n := len(s.Frames)
	order := make([]int, 0, n)
	order = append(order, 0) // the I-frame
	rest := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		rest = append(rest, i)
	}
	switch o {
	case OrderOriginal:
		// decode order
	case OrderUnreferencedLast:
		sort.SliceStable(rest, func(a, b int) bool {
			ra, rb := s.Referenced(rest[a]), s.Referenced(rest[b])
			if ra != rb {
				return ra // referenced frames first
			}
			return rest[a] < rest[b]
		})
	case OrderByInboundRefs:
		trans := s.TransitiveDependents()
		sort.SliceStable(rest, func(a, b int) bool {
			ia, ib := rest[a], rest[b]
			if trans[ia] != trans[ib] {
				return trans[ia] > trans[ib] // most depended-on first
			}
			// Among equals (e.g. unreferenced Bs), keep the visually
			// costlier frames longer: higher motion earlier.
			ma, mb := s.Frames[ia].Motion, s.Frames[ib].Motion
			if ma != mb {
				return ma > mb
			}
			return ia < ib
		})
	default:
		return nil, fmt.Errorf("prep: unknown ordering %d (have %v)", o, Orderings())
	}
	return append(order, rest...), nil
}

// MustOrder is Order for orderings known to be valid (anything from
// Orderings()); it panics on error.
func MustOrder(s *video.Segment, o Ordering) []int {
	order, err := Order(s, o)
	if err != nil {
		panic(err)
	}
	return order
}

// QoEPoint is one tuple of the manifest's `ssims` attribute: downloading
// Bytes of the segment (in the plan's order) yields Frames complete frames
// and the given Score.
type QoEPoint struct {
	Score  float64
	Frames int // frames fully delivered, I-frame included
	Bytes  int // cumulative bytes: reliable part + kept frame bodies
}

// Plan is the offline analysis result for one segment at one quality.
type Plan struct {
	Title   string
	Index   int
	Quality video.Quality

	Ordering Ordering
	Order    []int
	// Points maps bytes downloaded to QoE, monotone nondecreasing in
	// Bytes. Points[len-1] is the full segment.
	Points []QoEPoint
	// ReliableSize is the I-frame plus all frame headers — always fetched
	// over the reliable stream.
	ReliableSize int
	// MinBytes is the smallest byte count whose score clears the lower
	// bound (the pristine score one rung down); clients may fetch more.
	MinBytes int
	// LowerBound is that bound.
	LowerBound float64
}

// Analyzer runs the offline preparation.
type Analyzer struct {
	Model  qoe.Model
	Metric qoe.Metric
}

// NewAnalyzer returns an Analyzer with the default QoE model and metric.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Model: qoe.DefaultModel, Metric: qoe.SSIM}
}

// reliableSize returns the byte count of the always-reliable portion.
func reliableSize(s *video.Segment) int {
	n := s.Frames[0].Size // the I-frame, in full
	for i := 1; i < len(s.Frames); i++ {
		n += s.Frames[i].HeaderSize
	}
	return n
}

// curve computes the QoE for keeping the first k frames of the order, for
// every k, along with the cumulative byte requirement. Neighbouring points
// differ in one frame's arrival, so the score is tracked incrementally: a
// step costs that frame and its dependents, not the whole segment.
func (a *Analyzer) curve(s *video.Segment, order []int) []QoEPoint {
	points := make([]QoEPoint, 0, len(order))
	loss := make([]float64, len(s.Frames))
	// Start from "everything dropped except the I-frame".
	for i := 1; i < len(s.Frames); i++ {
		loss[i] = 1
	}
	t := a.Model.Track(a.Metric, s, loss)
	bytes := reliableSize(s)
	points = append(points, QoEPoint{Score: t.Score(), Frames: 1, Bytes: bytes})
	for k := 1; k < len(order); k++ {
		f := order[k]
		t.SetLoss(f, 0)
		bs, be := s.BodyRange(f)
		bytes += be - bs
		points = append(points, QoEPoint{Score: t.Score(), Frames: k + 1, Bytes: bytes})
	}
	return points
}

// CurveFor exposes the bytes→QoE curve for an explicit download order —
// used by the figure harness and by callers that want the raw mapping.
func (a *Analyzer) CurveFor(s *video.Segment, order []int) []QoEPoint {
	return a.curve(s, order)
}

// minBytesFor returns the smallest Bytes on the curve achieving at least
// target; ok is false when even the full segment misses the target.
func minBytesFor(points []QoEPoint, target float64) (int, bool) {
	// The curve is monotone nondecreasing in k for ranked orders, but we
	// scan for robustness (the original order need not be monotone).
	for _, p := range points {
		if p.Score >= target {
			return p.Bytes, true
		}
	}
	return 0, false
}

// Analyze runs the §4.1 procedure for one segment: evaluate the three
// orderings, find the smallest byte count clearing lowerBound under each,
// and pick the cheapest ordering.
func (a *Analyzer) Analyze(s *video.Segment, lowerBound float64) Plan {
	best := Plan{
		Title:        s.Title,
		Index:        s.Index,
		Quality:      s.Quality,
		ReliableSize: reliableSize(s),
		LowerBound:   lowerBound,
	}
	bestBytes := -1
	for _, o := range Orderings() {
		order := MustOrder(s, o)
		points := a.curve(s, order)
		mb, ok := minBytesFor(points, lowerBound)
		if !ok {
			mb = points[len(points)-1].Bytes // full segment still misses: take all
		}
		if bestBytes < 0 || mb < bestBytes {
			bestBytes = mb
			best.Ordering = o
			best.Order = order
			best.Points = points
			best.MinBytes = mb
		}
	}
	return best
}

// AnalyzeSegment prepares segment i of v at quality q. The lower bound for
// quality Qn is the pristine score at Qn−1 (0 for Q0), per §4.1.
func (a *Analyzer) AnalyzeSegment(v *video.Video, i int, q video.Quality) Plan {
	bound := 0.0
	if q > 0 {
		lower := v.Segment(i, q-1)
		bound = a.Model.Score(a.Metric, lower, qoe.PerfectDelivery(lower))
	}
	return a.Analyze(v.Segment(i, q), bound)
}

// AnalyzeVideo prepares every segment of v at quality q.
func (a *Analyzer) AnalyzeVideo(v *video.Video, q video.Quality) []Plan {
	plans := make([]Plan, v.Segments)
	for i := range plans {
		plans[i] = a.AnalyzeSegment(v, i, q)
	}
	return plans
}

// MaxDropFraction returns the largest fraction of frames (I-frame excluded
// from the droppable set, included in the denominator's complement — i.e.
// fraction of the 95 non-I frames) that can be dropped from the tail of
// the given ordering while the score stays at or above target.
func (a *Analyzer) MaxDropFraction(s *video.Segment, o Ordering, target float64) float64 {
	order := MustOrder(s, o)
	points := a.curve(s, order)
	// points[k].Frames = k+1 kept; dropping d = len(order)-1-k frames.
	// Find the smallest k with score >= target (curve is nondecreasing for
	// ranked orders; scan handles any shape).
	for k := 0; k < len(points); k++ {
		if points[k].Score >= target {
			dropped := len(order) - points[k].Frames
			return float64(dropped) / float64(len(order)-1)
		}
	}
	return 0
}

// DropSet returns the frame indices dropped at the segment's maximum
// tolerance for target under ordering o.
func (a *Analyzer) DropSet(s *video.Segment, o Ordering, target float64) []int {
	order := MustOrder(s, o)
	points := a.curve(s, order)
	for k := 0; k < len(points); k++ {
		if points[k].Score >= target {
			return append([]int(nil), order[points[k].Frames:]...)
		}
	}
	return nil
}

// ReferencedShare returns the fraction of the given drop set that consists
// of referenced frames — the §3 statistic (12.6%–30% across titles).
func ReferencedShare(s *video.Segment, drop []int) float64 {
	if len(drop) == 0 {
		return 0
	}
	ref := 0
	for _, i := range drop {
		if s.Referenced(i) {
			ref++
		}
	}
	return float64(ref) / float64(len(drop))
}

// BetaLevel is BETA's single virtual quality level of one segment: the
// segment minus the bodies of its unreferenced B-frames, the only data BETA
// may drop. The zero value means "no level": BETA then offers the full
// segment only.
type BetaLevel struct {
	Bytes  int     // bytes shipped: everything but the dropped bodies
	Frames int     // frames kept
	Score  float64 // QoE of the segment with the dropped frames concealed
	// Ranges lists the shipped bytes (segment-relative, ascending), one
	// range per frame: a dropped frame still ships its headers so the
	// decoder stays in sync. BETA's modified files make this a contiguous
	// prefix; range requests express the same byte set here.
	Ranges [][2]int
}

// Beta computes the segment's BetaLevel.
func (a *Analyzer) Beta(s *video.Segment) BetaLevel {
	loss := make([]float64, len(s.Frames))
	lvl := BetaLevel{Bytes: s.TotalBytes(), Frames: len(s.Frames), Ranges: make([][2]int, len(s.Frames))}
	for i := range s.Frames {
		start, end := s.FrameRange(i)
		if s.Frames[i].Type == video.BFrame && !s.Referenced(i) {
			loss[i] = 1
			_, end = s.HeaderRange(i)
			lvl.Bytes -= s.Frames[i].Size - s.Frames[i].HeaderSize
			lvl.Frames--
		}
		lvl.Ranges[i] = [2]int{start, end}
	}
	lvl.Score = a.Model.Score(a.Metric, s, loss)
	return lvl
}

// ThinPoints reduces a QoE curve to at most n points for the manifest,
// always keeping the last (the full segment, the point every client can
// fall back to), then the first, and spacing the rest evenly along the
// curve.
func ThinPoints(points []QoEPoint, n int) []QoEPoint {
	if n <= 0 || len(points) <= n {
		return points
	}
	if n == 1 {
		return []QoEPoint{points[len(points)-1]}
	}
	out := make([]QoEPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(points) - 1) / (n - 1)
		out = append(out, points[idx])
	}
	return out
}

// ReliableRanges returns the byte ranges fetched reliably: the I-frame in
// full plus every frame's headers, merged where adjacent.
func ReliableRanges(s *video.Segment) [][2]int {
	var ranges [][2]int
	is, ie := s.FrameRange(0)
	ranges = append(ranges, [2]int{is, ie})
	for i := 1; i < len(s.Frames); i++ {
		hs, he := s.HeaderRange(i)
		if last := &ranges[len(ranges)-1]; hs == (*last)[1] {
			(*last)[1] = he
		} else {
			ranges = append(ranges, [2]int{hs, he})
		}
	}
	return ranges
}

// UnreliableRanges returns the body byte ranges in download order (after
// the I-frame), i.e. the order a VOXEL client requests them over the
// unreliable stream.
func UnreliableRanges(s *video.Segment, order []int) [][2]int {
	ranges := make([][2]int, 0, len(order)-1)
	for _, f := range order[1:] {
		bs, be := s.BodyRange(f)
		if be > bs {
			ranges = append(ranges, [2]int{bs, be})
		}
	}
	return ranges
}

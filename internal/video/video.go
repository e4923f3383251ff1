// Package video models the evaluation videos as the rest of the system
// sees them: H.264-style GOP structure (I/P/B frames, one slice per frame),
// a macroblock-inspired reference graph including transitive dependencies,
// and capped-VBR per-segment sizes.
//
// The paper uses four canonical titles (Big Buck Bunny, Elephants Dream,
// Sintel, Tears of Steel; Tab. 1) plus ten YouTube clips (P1–P10; Tab. 3),
// each cut to 75 four-second segments at 24 fps and transcoded at the 13
// quality levels of Tab. 2. Real video assets are unavailable here, so each
// title is synthesized deterministically from its name, parameterized to
// match the published statistics: per-title segment-bitrate standard
// deviations, a byte split of ≈15% I / 65% P / 20% B, and the content
// characteristics §3 and Appendix C describe (e.g. P9's near-static scenes,
// P10's continuous high-motion dance).
package video

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Quality identifies a rung of the bitrate ladder, Q0 (lowest) to Q12.
type Quality int

// NumQualities is the size of the Tab. 2 ladder.
const NumQualities = 13

// String returns "Q<n>".
func (q Quality) String() string { return fmt.Sprintf("Q%d", int(q)) }

// Rung describes one ladder entry from Tab. 2.
type Rung struct {
	Quality    Quality
	Resolution string  // e.g. "1080p"
	AvgBitrate float64 // bits per second
}

// Ladder is the Tab. 2 quality ladder: 0.16 Mbps at 144p up to 10 Mbps at
// 2160p.
var Ladder = [NumQualities]Rung{
	{0, "144p", 0.16e6},
	{1, "240p", 0.23e6},
	{2, "240p", 0.37e6},
	{3, "360p", 0.56e6},
	{4, "360p", 0.75e6},
	{5, "480p", 1.05e6},
	{6, "480p", 1.75e6},
	{7, "720p", 2.35e6},
	{8, "720p", 3.0e6},
	{9, "1080p", 4.3e6},
	{10, "1080p", 5.8e6},
	{11, "1440p", 7.4e6},
	{12, "2160p", 10e6},
}

// Standard encoding parameters from §5.
const (
	SegmentDuration = 4 * time.Second
	FramesPerSeg    = 96 // 4 s × 24 fps
	DefaultSegments = 75 // five-minute clips
)

// FrameType is the H.264 frame type.
type FrameType int

// Frame types: intra-coded, predicted, bi-directionally predicted.
const (
	IFrame FrameType = iota
	PFrame
	BFrame
)

func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	default:
		return "B"
	}
}

// Frame is one encoded frame within a segment, in decode order.
type Frame struct {
	Index      int
	Type       FrameType
	Size       int // total encoded bytes, header included
	HeaderSize int // bytes that must be delivered reliably (NAL headers)
	// Refs lists the direct references (indices of frames this one predicts
	// from). Every segment has the same GOP, so the slice is shared by that
	// frame of every segment of every title: read-only.
	Refs []int
	// Motion is the per-frame motion intensity in [0,1]: how much the frame
	// changes relative to its references. It drives both concealment error
	// and error propagation in the QoE model.
	Motion float64
}

// Referenced reports whether any other frame references this one, per the
// segment's dependency graph.
func (s *Segment) Referenced(i int) bool { return gop.inbound[i] > 0 }

// Segment is one 4-second piece of a title at one quality.
type Segment struct {
	Title      string
	Index      int
	Quality    Quality
	Frames     []Frame
	Complexity float64 // content complexity in (0,1]; drives base SSIM
	Motion     float64 // segment-mean motion in [0,1]

	offsets []int // byte offset of each frame; len = frames+1
}

// TotalBytes returns the segment size in bytes.
func (s *Segment) TotalBytes() int { return s.offsets[len(s.offsets)-1] }

// Bitrate returns the segment's bitrate in bits per second.
func (s *Segment) Bitrate() float64 {
	return float64(s.TotalBytes()*8) / SegmentDuration.Seconds()
}

// FrameRange returns the byte range [start, end) of frame i in the segment
// file, in decode order (the on-disk layout VOXEL never changes).
func (s *Segment) FrameRange(i int) (start, end int) {
	return s.offsets[i], s.offsets[i+1]
}

// HeaderRange returns the byte range of frame i's headers — the part the
// client always fetches reliably (§4.2).
func (s *Segment) HeaderRange(i int) (start, end int) {
	return s.offsets[i], s.offsets[i] + s.Frames[i].HeaderSize
}

// BodyRange returns the byte range of frame i's payload after the headers.
func (s *Segment) BodyRange(i int) (start, end int) {
	return s.offsets[i] + s.Frames[i].HeaderSize, s.offsets[i+1]
}

// The graph accessors below return slices of the one GOP every segment
// shares: read-only.

// InboundRefs returns, per frame, the number of direct inbound references.
func (s *Segment) InboundRefs() []int { return gop.inbound }

// TransitiveDependents returns, per frame, how many frames transitively
// depend on it — the importance measure behind ordering 3 in §4.1.
func (s *Segment) TransitiveDependents() []int { return gop.transitive }

// EvalOrder lists the frames so that each follows every frame it
// references: anchors in index order, then the middle B of each triple,
// then the outer Bs. Anything propagated along the reference graph is
// evaluated in this order.
func (s *Segment) EvalOrder() []int { return gop.evalOrder }

// Affected returns frame i followed by its transitive dependents, in
// EvalOrder: the frames whose decoded picture can change when frame i's
// does.
func (s *Segment) Affected(i int) []int { return gop.affected[i] }

// Video is a title: metadata plus a deterministic segment synthesizer. A
// Video may be shared: concurrent Segment calls are safe, and a segment,
// once returned, is read-only.
type Video struct {
	Title string
	Genre string
	// Segments is the clip length: DefaultSegments as loaded; an owner may
	// lower it to trim the clip before sharing the video.
	Segments int
	// StdDevMbps is the published per-title standard deviation of segment
	// bitrates at Q12 (Tabs. 1 and 3).
	StdDevMbps float64

	profile profile
	// slots holds the synthesized segments, one per (index, quality) of the
	// full clip, filled on first use.
	slots []atomic.Pointer[Segment]
	// contents holds the content state of each segment index, shared by its
	// NumQualities renditions and filled on first use.
	contents []contentSlot
}

// content is what every rendition of one segment index has in common.
type content struct {
	vbrFactor, complexity, motion float64
	cut                           bool
}

type contentSlot struct {
	once sync.Once
	content
}

// profile captures the content characteristics that differentiate titles.
type profile struct {
	stdRel     float64 // relative VBR stddev at Q12 (stddev / 10 Mbps)
	motionBase float64 // mean motion intensity
	motionVar  float64
	cutRate    float64 // probability a segment starts a new scene
	staticness float64 // 0 = all frames change, 1 = almost nothing moves
}

var catalog = map[string]struct {
	genre  string
	stdDev float64 // Mbps, from Tab. 1 / Tab. 3
	prof   profile
}{
	// The four canonical titles (Tab. 1).
	"BBB":    {"Comedy", 3.77, profile{0.377, 0.50, 0.25, 0.30, 0.35}},
	"ED":     {"Sci-Fi", 5.60, profile{0.560, 0.55, 0.30, 0.25, 0.30}},
	"Sintel": {"Fantasy", 7.50, profile{0.750, 0.60, 0.35, 0.25, 0.25}},
	"ToS":    {"Sci-Fi", 3.52, profile{0.352, 0.45, 0.25, 0.30, 0.40}},
	// The ten YouTube clips (Tab. 3). P9 is a near-static unboxing video;
	// P10 a continuous high-motion dance performance without scene cuts.
	"P1":  {"Beauty", 2.20, profile{0.220, 0.35, 0.20, 0.25, 0.45}},
	"P2":  {"Comedy", 1.88, profile{0.188, 0.45, 0.25, 0.35, 0.35}},
	"P3":  {"Sports", 2.52, profile{0.252, 0.65, 0.30, 0.30, 0.20}},
	"P4":  {"Gaming", 2.05, profile{0.205, 0.55, 0.30, 0.20, 0.30}},
	"P5":  {"Cooking", 1.76, profile{0.176, 0.40, 0.20, 0.30, 0.40}},
	"P6":  {"Music", 4.35, profile{0.435, 0.60, 0.35, 0.40, 0.25}},
	"P7":  {"Entertainment", 2.03, profile{0.203, 0.45, 0.25, 0.30, 0.35}},
	"P8":  {"Politics", 1.60, profile{0.160, 0.30, 0.15, 0.20, 0.50}},
	"P9":  {"Tech", 1.70, profile{0.170, 0.08, 0.05, 0.15, 0.93}},
	"P10": {"Entertainment", 1.94, profile{0.194, 0.95, 0.10, 0.00, 0.02}},
}

// TestTitles lists the four canonical titles used in §5.
func TestTitles() []string { return []string{"BBB", "ED", "Sintel", "ToS"} }

// YouTubeTitles lists the Tab. 3 clip identifiers.
func YouTubeTitles() []string {
	return []string{"P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10"}
}

// AllTitles lists every known title.
func AllTitles() []string { return append(TestTitles(), YouTubeTitles()...) }

// Load returns the named title. The same name always yields the same video.
func Load(name string) (*Video, error) {
	c, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("video: unknown title %q", name)
	}
	return &Video{
		Title:      name,
		Genre:      c.genre,
		Segments:   DefaultSegments,
		StdDevMbps: c.stdDev,
		profile:    c.prof,
		slots:      make([]atomic.Pointer[Segment], DefaultSegments*NumQualities),
		contents:   make([]contentSlot, DefaultSegments),
	}, nil
}

// MustLoad is Load for known-good names; it panics otherwise.
func MustLoad(name string) *Video {
	v, err := Load(name)
	if err != nil {
		panic(err)
	}
	return v
}

func seedFor(parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return int64(h.Sum64())
}

// Segment synthesizes (or returns the cached) segment idx at quality q.
func (v *Video) Segment(idx int, q Quality) *Segment {
	if idx < 0 || idx >= v.Segments {
		panic(fmt.Sprintf("video: segment %d out of range", idx))
	}
	if q < 0 || int(q) >= NumQualities {
		panic(fmt.Sprintf("video: quality %d out of range", q))
	}
	slot := &v.slots[idx*NumQualities+int(q)]
	if s := slot.Load(); s != nil {
		return s
	}
	// Synthesis is a pure function of (title, idx, q): racing fillers build
	// equal segments, and every caller returns the one that was stored.
	slot.CompareAndSwap(nil, v.synthesize(idx, q))
	return slot.Load()
}

// rngPool recycles the generators synthesis seeds afresh for every (title,
// segment, quality): Seed(x) restarts the stream rand.NewSource(x) would
// produce, without allocating its 607-word state each time.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// contentAt derives the content state of segment idx — deterministic per
// title, shared across qualities so the VBR shape is identical up and down
// the ladder (as with real 2-pass capped-VBR encodes).
func (v *Video) contentAt(idx int) content {
	slot := &v.contents[idx]
	slot.once.Do(func() { slot.content = v.deriveContent(idx) })
	return slot.content
}

func (v *Video) deriveContent(idx int) content {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(seedFor("content", v.Title, idx))
	p := v.profile

	// Smooth scene intensity: a few overlapping sinusoids plus noise give
	// multi-segment "action arcs", then the per-title stddev scales them.
	base := 0.0
	for h := 1; h <= 3; h++ {
		phase := float64(seedFor(v.Title, h)%1000) / 1000 * 2 * math.Pi
		base += math.Sin(2*math.Pi*float64(idx)*float64(h)/25+phase) / float64(h)
	}
	base /= 1.83 // normalize sum of 1+1/2+1/3 to ≈[-1,1]
	jitter := rng.NormFloat64() * 0.35
	x := base + jitter

	// Capped VBR: mean 1, scaled to the title's relative stddev, clamped to
	// the "2× capped" range from §5.
	vbrFactor := 1 + x*p.stdRel*2.1
	if vbrFactor < 0.25 {
		vbrFactor = 0.25
	}
	if vbrFactor > 2.0 {
		vbrFactor = 2.0
	}

	motion := p.motionBase + x*p.motionVar
	if motion < 0.02 {
		motion = 0.02
	}
	if motion > 1 {
		motion = 1
	}
	// Complexity tracks how hard the content is to encode. It follows the
	// VBR factor sub-linearly: 2-pass capped-VBR spends bits where the
	// content needs them, so quality stays roughly constant per rung while
	// leaving the residual spread Fig. 1d shows.
	complexity := math.Pow(vbrFactor, 0.9) * (0.45 + 0.3*motion + 0.12*rng.Float64())
	if complexity > 1 {
		complexity = 1
	}
	if complexity < 0.05 {
		complexity = 0.05
	}
	cut := rng.Float64() < p.cutRate
	return content{vbrFactor, complexity, motion, cut}
}

// gopGraph is the reference structure of a segment. It depends on nothing
// but FramesPerSeg, so there is one per process and every Segment reads it.
//
// GOP layout: frame 0 is the I-frame; thereafter mini-GOPs of IBBBP
// structure repeat (anchor every 4 frames), with a B-pyramid: the middle B
// of each triple is referenced by its neighbors.
type gopGraph struct {
	// frames is the template a segment's Frames start from: Index, Type and
	// Refs set, sizes and motion zero.
	frames     []Frame
	inbound    []int   // direct inbound reference counts
	transitive []int   // # frames transitively depending on each frame
	evalOrder  []int   // see Segment.EvalOrder
	affected   [][]int // see Segment.Affected
}

var gop = newGOP(FramesPerSeg)

func newGOP(n int) *gopGraph {
	g := &gopGraph{
		frames:     make([]Frame, n),
		inbound:    make([]int, n),
		transitive: make([]int, n),
		evalOrder:  make([]int, 0, n),
		affected:   make([][]int, n),
	}
	refs := make([]int, 0, 3*n) // one backing array for every frame's Refs
	lastAnchor := 0
	for i := range g.frames {
		f := &g.frames[i]
		f.Index = i
		first := len(refs)
		switch {
		case i == 0:
			f.Type = IFrame
		case i%4 == 0:
			f.Type = PFrame
			refs = append(refs, lastAnchor)
			lastAnchor = i
		default:
			f.Type = BFrame
			// B frames reference the surrounding anchors (a trailing partial
			// mini-GOP has no next anchor: backward only)...
			prev := (i / 4) * 4
			refs = append(refs, prev)
			if next := prev + 4; next < n {
				refs = append(refs, next)
			}
			// ...and in the B-pyramid the outer Bs also reference the
			// middle B of the triple.
			if mid := prev + 2; i != mid && mid < n {
				refs = append(refs, mid)
			}
		}
		if len(refs) > first {
			f.Refs = refs[first:len(refs):len(refs)]
		}
	}

	dependents := make([][]int, n) // direct dependents of each frame
	for i, f := range g.frames {
		for _, r := range f.Refs {
			g.inbound[r]++
			dependents[r] = append(dependents[r], i)
		}
	}

	for i := 0; i < n; i += 4 { // anchors
		g.evalOrder = append(g.evalOrder, i)
	}
	for i := 2; i < n; i += 4 { // referenced (pyramid) Bs
		g.evalOrder = append(g.evalOrder, i)
	}
	for i := 1; i < n; i += 2 { // outer Bs
		g.evalOrder = append(g.evalOrder, i)
	}

	// Transitive dependents via DFS per frame. n=96, graph sparse: fine.
	reached := make([]bool, n)
	var stack []int
	for i := 0; i < n; i++ {
		clear(reached)
		stack = append(stack[:0], dependents[i]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reached[x] {
				continue
			}
			reached[x] = true
			g.transitive[i]++
			stack = append(stack, dependents[x]...)
		}
		g.affected[i] = make([]int, 0, 1+g.transitive[i])
		g.affected[i] = append(g.affected[i], i)
		for _, x := range g.evalOrder {
			if reached[x] {
				g.affected[i] = append(g.affected[i], x)
			}
		}
	}
	return g
}

// synthesize builds the frame sizes and motion of one segment over the
// shared GOP. Byte shares target the published ≈15/65/20 I/P/B split.
func (v *Video) synthesize(idx int, q Quality) *Segment {
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(seedFor("seg", v.Title, idx, int(q)))
	c := v.contentAt(idx)

	totalBytes := int(Ladder[q].AvgBitrate * SegmentDuration.Seconds() / 8 * c.vbrFactor)
	if totalBytes < FramesPerSeg*40 {
		totalBytes = FramesPerSeg * 40
	}

	frames := make([]Frame, FramesPerSeg)
	copy(frames, gop.frames)

	// Per-frame motion: smooth within the segment around the segment mean,
	// with the staticness profile collapsing it toward zero.
	m := c.motion * (1 - v.profile.staticness)
	for i := range frames {
		wiggle := 0.5 + 0.5*math.Sin(2*math.Pi*float64(i)/31+rng.Float64()*0.3)
		fm := m * (0.6 + 0.8*wiggle)
		if fm > 1 {
			fm = 1
		}
		frames[i].Motion = fm
	}

	// Byte shares: 15% I / 65% P / 20% B on average (the paper's measured
	// split), with per-frame jitter tied to motion.
	iShare := 0.15 * (1 + 0.2*rng.NormFloat64()*0.25)
	if iShare < 0.08 {
		iShare = 0.08
	}
	pShare := 0.65
	bShare := 1 - iShare - pShare

	var weights [FramesPerSeg]float64
	var pW, bW float64
	for i := range frames {
		w := 0.5 + frames[i].Motion + 0.2*rng.Float64()
		weights[i] = w
		switch frames[i].Type {
		case PFrame:
			pW += w
		case BFrame:
			bW += w
		}
	}

	used := 0
	for i := range frames {
		var share float64
		switch frames[i].Type {
		case IFrame:
			share = iShare
		case PFrame:
			share = pShare * weights[i] / pW
		case BFrame:
			share = bShare * weights[i] / bW
		}
		sz := int(float64(totalBytes) * share)
		if sz < 40 {
			sz = 40
		}
		frames[i].Size = sz
		// NAL/slice headers: small fixed part plus a sliver of the payload.
		frames[i].HeaderSize = 24 + sz/64
		if frames[i].HeaderSize > sz {
			frames[i].HeaderSize = sz
		}
		used += sz
	}
	// Give any rounding remainder to the I-frame.
	if used < totalBytes {
		frames[0].Size += totalBytes - used
	}

	s := &Segment{
		Title:      v.Title,
		Index:      idx,
		Quality:    q,
		Frames:     frames,
		Complexity: c.complexity,
		Motion:     c.motion,
		offsets:    make([]int, FramesPerSeg+1),
	}
	for i := range frames {
		s.offsets[i+1] = s.offsets[i] + frames[i].Size
	}
	return s
}

// ByteShares returns the fraction of segment bytes in I, P, and B frames.
func (s *Segment) ByteShares() (i, p, b float64) {
	var iB, pB, bB int
	for _, f := range s.Frames {
		switch f.Type {
		case IFrame:
			iB += f.Size
		case PFrame:
			pB += f.Size
		case BFrame:
			bB += f.Size
		}
	}
	t := float64(s.TotalBytes())
	return float64(iB) / t, float64(pB) / t, float64(bB) / t
}

// SegmentBitrates returns the per-segment bitrates (bps) of the whole title
// at quality q — the Fig. 15 series.
func (v *Video) SegmentBitrates(q Quality) []float64 {
	out := make([]float64, v.Segments)
	for i := range out {
		out[i] = v.Segment(i, q).Bitrate()
	}
	return out
}

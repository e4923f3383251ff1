// Package dash models the DASH manifest (MPD) including VOXEL's extension
// (§4.1, Listing 1): per-segment `ssims` score tuples, `reliable` and
// `unreliable` byte-range lists, and `reliableSize`. VOXEL never modifies
// video files — all cross-layer information travels in the manifest, which
// VOXEL-unaware clients simply ignore (the compatibility property §4.1
// stresses).
//
// The package provides both the typed in-memory Manifest the player
// consumes and a faithful XML wire encoding with parsers for the custom
// attributes.
package dash

import (
	"encoding/xml"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"voxel/internal/prep"
	"voxel/internal/video"
)

// SegmentInfo describes one segment of one representation.
type SegmentInfo struct {
	// MediaRange is the [start, end) byte range of the segment within the
	// representation's media file.
	MediaRange [2]int64
	// Bytes is the segment size.
	Bytes int
	// Points is the bytes→QoE curve (VOXEL manifests only; nil otherwise).
	Points []prep.QoEPoint
	// Reliable lists byte ranges (segment-relative) that must travel
	// reliably: the I-frame and all frame headers.
	Reliable [][2]int
	// Unreliable lists the body byte ranges in download order.
	Unreliable [][2]int
	// ReliableSize is the total size of the reliable part.
	ReliableSize int
	// Beta is BETA's virtual level, computed with the rest of the offline
	// analysis. BETA ships modified files rather than metadata, so the level
	// lives in memory only: no encoding carries it, and a decoded or
	// stripped manifest has the zero ("no level") value.
	Beta prep.BetaLevel

	// ObjectRanges lists Reliable followed by Unreliable, and
	// BetaObjectRanges lists Beta.Ranges, as byte ranges of the
	// representation's media file (MediaRange[0] added): a request for part
	// of the segment names a subslice of one of them, shared read-only by
	// every session. setObjectRanges keeps them with MediaRange.
	ObjectRanges     [][2]int64
	BetaObjectRanges [][2]int64
}

// setObjectRanges derives ObjectRanges and BetaObjectRanges from MediaRange
// and the segment-relative ranges.
func (s *SegmentInfo) setObjectRanges() {
	s.ObjectRanges = objectRanges(s.MediaRange[0], s.Reliable, s.Unreliable)
	s.BetaObjectRanges = objectRanges(s.MediaRange[0], s.Beta.Ranges)
}

// objectRanges lists segment-relative ranges, in order, as ranges of a media
// file whose segment starts at base; nil when there are none.
func objectRanges(base int64, parts ...[][2]int) [][2]int64 {
	n := 0
	for _, ranges := range parts {
		n += len(ranges)
	}
	if n == 0 {
		return nil
	}
	out := make([][2]int64, 0, n)
	for _, ranges := range parts {
		for _, r := range ranges {
			out = append(out, [2]int64{base + int64(r[0]), base + int64(r[1])})
		}
	}
	return out
}

// Voxel reports whether the segment carries VOXEL metadata.
func (s *SegmentInfo) Voxel() bool { return len(s.Points) > 0 }

// RepInfo describes one representation (quality level).
type RepInfo struct {
	Quality    video.Quality
	Bandwidth  int // bits per second, ladder average
	Resolution string
	Segments   []SegmentInfo
}

// Manifest is the typed MPD. It is immutable once built: MPD caches the
// encoding on first use.
type Manifest struct {
	Title           string
	SegmentDuration time.Duration
	Reps            []RepInfo

	mpdOnce sync.Once
	mpd     []byte
	mpdErr  error
}

// NumSegments returns the segment count (identical across representations).
func (m *Manifest) NumSegments() int {
	if len(m.Reps) == 0 {
		return 0
	}
	return len(m.Reps[0].Segments)
}

// Duration returns the media duration.
func (m *Manifest) Duration() time.Duration {
	return time.Duration(m.NumSegments()) * m.SegmentDuration
}

// Segment returns the info for (quality, index).
func (m *Manifest) Segment(q video.Quality, idx int) *SegmentInfo {
	return &m.Reps[q].Segments[idx]
}

// BuildOptions controls manifest construction.
type BuildOptions struct {
	// Voxel enables the §4.1 enrichment (orderings, score tuples, ranges).
	Voxel bool
	// PointsPerSegment thins the QoE curve per segment (Listing 1 shows a
	// handful of tuples); 0 means keep everything.
	PointsPerSegment int
	// Analyzer overrides the default analyzer.
	Analyzer *prep.Analyzer
}

// Build constructs the manifest for a title, optionally enriched. Segment
// indices are independent of one another, so the ladder is synthesized and
// analysed on every core (GOMAXPROCS workers) and assembled by index: the
// result does not depend on the worker count.
func Build(v *video.Video, opts BuildOptions) *Manifest {
	a := opts.Analyzer
	if a == nil {
		a = prep.NewAnalyzer()
	}
	m := &Manifest{Title: v.Title, SegmentDuration: video.SegmentDuration}
	m.Reps = make([]RepInfo, video.NumQualities)
	for q := range m.Reps {
		m.Reps[q] = RepInfo{
			Quality:    video.Quality(q),
			Bandwidth:  int(video.Ladder[q].AvgBitrate),
			Resolution: video.Ladder[q].Resolution,
			Segments:   make([]SegmentInfo, v.Segments),
		}
	}

	var next atomic.Int64 // the next segment index nobody has taken
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), v.Segments); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= v.Segments {
					return
				}
				for q := range m.Reps {
					m.Reps[q].Segments[i] = buildSegment(v, i, video.Quality(q), a, opts)
				}
			}
		}()
	}
	wg.Wait()

	for q := range m.Reps {
		var offset int64
		for i := range m.Reps[q].Segments {
			info := &m.Reps[q].Segments[i]
			info.MediaRange = [2]int64{offset, offset + int64(info.Bytes)}
			info.setObjectRanges()
			offset += int64(info.Bytes)
		}
	}
	return m
}

// buildSegment describes segment i at quality q, all but its MediaRange
// (which depends on the segments before it).
func buildSegment(v *video.Video, i int, q video.Quality, a *prep.Analyzer, opts BuildOptions) SegmentInfo {
	s := v.Segment(i, q)
	info := SegmentInfo{Bytes: s.TotalBytes()}
	if opts.Voxel {
		p := a.AnalyzeSegment(v, i, q)
		info.Points = prep.ThinPoints(p.Points, opts.PointsPerSegment)
		info.Reliable = prep.ReliableRanges(s)
		info.Unreliable = prep.UnreliableRanges(s, p.Order)
		info.ReliableSize = p.ReliableSize
		info.Beta = a.Beta(s)
	}
	return info
}

// --- XML wire format ---

type xmlMPD struct {
	XMLName  xml.Name    `xml:"MPD"`
	Xmlns    string      `xml:"xmlns,attr"`
	Type     string      `xml:"type,attr"`
	Duration string      `xml:"mediaPresentationDuration,attr"`
	Title    string      `xml:"title,attr"`
	Period   []xmlPeriod `xml:"Period"`
}

type xmlPeriod struct {
	AdaptationSet []xmlAdaptationSet `xml:"AdaptationSet"`
}

type xmlAdaptationSet struct {
	MimeType       string              `xml:"mimeType,attr"`
	Representation []xmlRepresentation `xml:"Representation"`
}

type xmlRepresentation struct {
	ID          string         `xml:"id,attr"`
	Bandwidth   int            `xml:"bandwidth,attr"`
	Resolution  string         `xml:"resolution,attr"`
	SegmentList xmlSegmentList `xml:"SegmentList"`
}

type xmlSegmentList struct {
	DurationMS int             `xml:"duration,attr"`
	SegmentURL []xmlSegmentURL `xml:"SegmentURL"`
}

type xmlSegmentURL struct {
	MediaRange   string `xml:"mediaRange,attr"`
	SSIMs        string `xml:"ssims,attr,omitempty"`
	Reliable     string `xml:"reliable,attr,omitempty"`
	Unreliable   string `xml:"unreliable,attr,omitempty"`
	ReliableSize int    `xml:"reliableSize,attr,omitempty"`
}

// formatRange renders "start-end" with an inclusive end, as HTTP ranges and
// Listing 1 do.
func formatRange(start, end int64) string {
	return string(appendRange(make([]byte, 0, 24), start, end))
}

func appendRange(b []byte, start, end int64) []byte {
	b = strconv.AppendInt(b, start, 10)
	b = append(b, '-')
	return strconv.AppendInt(b, end-1, 10)
}

func parseRange(s string) (start, end int64, err error) {
	dash := strings.IndexByte(s, '-')
	if dash < 0 {
		return 0, 0, fmt.Errorf("dash: malformed range %q", s)
	}
	start, err = strconv.ParseInt(s[:dash], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("dash: malformed range %q: %w", s, err)
	}
	last, err := strconv.ParseInt(s[dash+1:], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("dash: malformed range %q: %w", s, err)
	}
	if last < start {
		return 0, 0, fmt.Errorf("dash: inverted range %q", s)
	}
	return start, last + 1, nil
}

// formatRangeList renders a comma-separated list of inclusive-end ranges,
// appended into one buffer.
func formatRangeList(ranges [][2]int) string {
	b := make([]byte, 0, 16*len(ranges))
	for i, r := range ranges {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRange(b, int64(r[0]), int64(r[1]))
	}
	return string(b)
}

func parseRangeList(s string) ([][2]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([][2]int, 0, len(parts))
	for _, p := range parts {
		start, end, err := parseRange(p)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]int{int(start), int(end)})
	}
	return out, nil
}

// formatPoints renders the `ssims` attribute: comma-separated
// score:frames:bytes triples (Listing 1).
func formatPoints(points []prep.QoEPoint) string {
	b := make([]byte, 0, 24*len(points))
	for i, p := range points {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, p.Score, 'f', 4, 64) // as %.4f
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Frames), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Bytes), 10)
	}
	return string(b)
}

func parsePoints(s string) ([]prep.QoEPoint, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]prep.QoEPoint, 0, len(parts))
	for _, p := range parts {
		fields := strings.Split(p, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("dash: malformed ssims tuple %q", p)
		}
		score, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dash: malformed score in %q: %w", p, err)
		}
		frames, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("dash: malformed frames in %q: %w", p, err)
		}
		bytes, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("dash: malformed bytes in %q: %w", p, err)
		}
		out = append(out, prep.QoEPoint{Score: score, Frames: frames, Bytes: bytes})
	}
	return out, nil
}

// MPD returns the manifest's MPD XML, encoded once and shared by every
// caller (servers of many sessions and trials): treat it as read-only.
func (m *Manifest) MPD() ([]byte, error) {
	m.mpdOnce.Do(func() { m.mpd, m.mpdErr = m.EncodeMPD() })
	return m.mpd, m.mpdErr
}

// EncodeMPD serializes the manifest to MPD XML into a fresh buffer.
func (m *Manifest) EncodeMPD() ([]byte, error) {
	doc := xmlMPD{
		Xmlns:    "urn:mpeg:dash:schema:mpd:2011",
		Type:     "static",
		Duration: m.Duration().String(),
		Title:    m.Title,
	}
	as := xmlAdaptationSet{MimeType: "video/mp4"}
	for _, rep := range m.Reps {
		xr := xmlRepresentation{
			ID:         rep.Quality.String(),
			Bandwidth:  rep.Bandwidth,
			Resolution: rep.Resolution,
			SegmentList: xmlSegmentList{
				DurationMS: int(m.SegmentDuration / time.Millisecond),
			},
		}
		for _, seg := range rep.Segments {
			xs := xmlSegmentURL{
				MediaRange: formatRange(seg.MediaRange[0], seg.MediaRange[1]),
			}
			if seg.Voxel() {
				xs.SSIMs = formatPoints(seg.Points)
				xs.Reliable = formatRangeList(seg.Reliable)
				xs.Unreliable = formatRangeList(seg.Unreliable)
				xs.ReliableSize = seg.ReliableSize
			}
			xr.SegmentList.SegmentURL = append(xr.SegmentList.SegmentURL, xs)
		}
		as.Representation = append(as.Representation, xr)
	}
	doc.Period = []xmlPeriod{{AdaptationSet: []xmlAdaptationSet{as}}}
	return xml.MarshalIndent(doc, "", "  ")
}

// DecodeMPD parses MPD XML into a Manifest. Unknown attributes are ignored,
// which is what makes VOXEL manifests backward compatible.
func DecodeMPD(data []byte) (*Manifest, error) {
	var doc xmlMPD
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	m := &Manifest{Title: doc.Title}
	if len(doc.Period) == 0 || len(doc.Period[0].AdaptationSet) == 0 {
		return nil, fmt.Errorf("dash: no adaptation set")
	}
	for qi, xr := range doc.Period[0].AdaptationSet[0].Representation {
		rep := RepInfo{
			Quality:    video.Quality(qi),
			Bandwidth:  xr.Bandwidth,
			Resolution: xr.Resolution,
		}
		if m.SegmentDuration == 0 {
			m.SegmentDuration = time.Duration(xr.SegmentList.DurationMS) * time.Millisecond
		}
		for _, xs := range xr.SegmentList.SegmentURL {
			start, end, err := parseRange(xs.MediaRange)
			if err != nil {
				return nil, err
			}
			seg := SegmentInfo{
				MediaRange:   [2]int64{start, end},
				Bytes:        int(end - start),
				ReliableSize: xs.ReliableSize,
			}
			if seg.Points, err = parsePoints(xs.SSIMs); err != nil {
				return nil, err
			}
			if seg.Reliable, err = parseRangeList(xs.Reliable); err != nil {
				return nil, err
			}
			if seg.Unreliable, err = parseRangeList(xs.Unreliable); err != nil {
				return nil, err
			}
			seg.setObjectRanges()
			rep.Segments = append(rep.Segments, seg)
		}
		m.Reps = append(m.Reps, rep)
	}
	return m, nil
}

// Strip returns a copy without VOXEL metadata — what a VOXEL-unaware client
// effectively sees.
func (m *Manifest) Strip() *Manifest {
	out := &Manifest{Title: m.Title, SegmentDuration: m.SegmentDuration}
	for _, rep := range m.Reps {
		nr := RepInfo{Quality: rep.Quality, Bandwidth: rep.Bandwidth, Resolution: rep.Resolution}
		for _, seg := range rep.Segments {
			s := SegmentInfo{MediaRange: seg.MediaRange, Bytes: seg.Bytes}
			s.setObjectRanges()
			nr.Segments = append(nr.Segments, s)
		}
		out.Reps = append(out.Reps, nr)
	}
	return out
}

// SizeOverhead reports the manifest's encoded size relative to the average
// segment size at the top quality — the ≈16% figure §4.1 quotes.
func (m *Manifest) SizeOverhead() (manifestBytes int, fraction float64, err error) {
	data, err := m.EncodeMPD()
	if err != nil {
		return 0, 0, err
	}
	top := m.Reps[len(m.Reps)-1]
	var avg float64
	for _, s := range top.Segments {
		avg += float64(s.Bytes)
	}
	avg /= float64(len(top.Segments))
	return len(data), float64(len(data)) / avg, nil
}

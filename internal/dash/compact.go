package dash

// Compact binary manifest encoding. §4.1 notes that the XML enrichment is
// a naive, unoptimized proof of concept whose ≈16%-of-a-segment size
// "can be mitigated by using a better encoding scheme for the metadata".
// This codec is that better scheme: varint-delta encoding of ranges and
// score tuples, typically an order of magnitude smaller than the MPD XML.
// The XML form remains the interoperable default; the compact form is an
// opt-in transfer encoding.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"voxel/internal/prep"
	"voxel/internal/video"
)

// compactMagic guards against decoding arbitrary bytes.
var compactMagic = [4]byte{'V', 'X', 'M', '1'}

var errCompact = errors.New("dash: malformed compact manifest")

type compactWriter struct{ buf []byte }

func (w *compactWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *compactWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

type compactReader struct{ buf []byte }

func (r *compactReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, errCompact
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *compactReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)) < n {
		return "", errCompact
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

// EncodeCompact serializes the manifest in the compact binary form.
func (m *Manifest) EncodeCompact() []byte {
	w := &compactWriter{}
	w.buf = append(w.buf, compactMagic[:]...)
	w.str(m.Title)
	w.uvarint(uint64(m.SegmentDuration / time.Millisecond))
	w.uvarint(uint64(len(m.Reps)))
	for _, rep := range m.Reps {
		w.uvarint(uint64(rep.Bandwidth))
		w.str(rep.Resolution)
		w.uvarint(uint64(len(rep.Segments)))
		for _, seg := range rep.Segments {
			// Media ranges tile the representation, so the start is
			// implied; only sizes travel.
			w.uvarint(uint64(seg.Bytes))
			w.uvarint(uint64(seg.ReliableSize))
			// Score tuples: scores as scaled fixed-point deltas would save
			// little; frames/bytes delta-encode well.
			w.uvarint(uint64(len(seg.Points)))
			prevFrames, prevBytes := uint64(0), uint64(0)
			for _, p := range seg.Points {
				w.uvarint(uint64(math.Round(p.Score * 10000)))
				w.uvarint(uint64(p.Frames) - prevFrames)
				w.uvarint(uint64(p.Bytes) - prevBytes)
				prevFrames, prevBytes = uint64(p.Frames), uint64(p.Bytes)
			}
			w.uvarint(uint64(len(seg.Reliable)))
			prev := uint64(0)
			for _, rr := range seg.Reliable {
				w.uvarint(uint64(rr[0]) - prev)
				w.uvarint(uint64(rr[1] - rr[0]))
				prev = uint64(rr[1])
			}
			// Unreliable ranges are in download order (not sorted), so
			// encode absolute start + length.
			w.uvarint(uint64(len(seg.Unreliable)))
			for _, rr := range seg.Unreliable {
				w.uvarint(uint64(rr[0]))
				w.uvarint(uint64(rr[1] - rr[0]))
			}
		}
	}
	return w.buf
}

// DecodeCompact parses the compact binary form.
func DecodeCompact(data []byte) (*Manifest, error) {
	if len(data) < 4 || [4]byte(data[:4]) != compactMagic {
		return nil, fmt.Errorf("dash: not a compact manifest")
	}
	r := &compactReader{buf: data[4:]}
	m := &Manifest{}
	var err error
	if m.Title, err = r.str(); err != nil {
		return nil, err
	}
	durMS, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	m.SegmentDuration = time.Duration(durMS) * time.Millisecond
	nreps, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nreps > 64 {
		return nil, errCompact
	}
	for q := uint64(0); q < nreps; q++ {
		rep := RepInfo{Quality: video.Quality(q)}
		bw, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rep.Bandwidth = int(bw)
		if rep.Resolution, err = r.str(); err != nil {
			return nil, err
		}
		nsegs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nsegs > 1<<20 {
			return nil, errCompact
		}
		var offset int64
		for i := uint64(0); i < nsegs; i++ {
			var seg SegmentInfo
			size, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			seg.Bytes = int(size)
			seg.MediaRange = [2]int64{offset, offset + int64(size)}
			offset += int64(size)
			rel, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			seg.ReliableSize = int(rel)

			npts, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if npts > 4096 {
				return nil, errCompact
			}
			prevFrames, prevBytes := uint64(0), uint64(0)
			for j := uint64(0); j < npts; j++ {
				score, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				df, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				db, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				prevFrames += df
				prevBytes += db
				seg.Points = append(seg.Points, prep.QoEPoint{
					Score:  float64(score) / 10000,
					Frames: int(prevFrames),
					Bytes:  int(prevBytes),
				})
			}

			nrel, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if nrel > 4096 {
				return nil, errCompact
			}
			prev := uint64(0)
			for j := uint64(0); j < nrel; j++ {
				gap, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				length, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				start := prev + gap
				seg.Reliable = append(seg.Reliable, [2]int{int(start), int(start + length)})
				prev = start + length
			}

			nunrel, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if nunrel > 4096 {
				return nil, errCompact
			}
			for j := uint64(0); j < nunrel; j++ {
				start, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				length, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				seg.Unreliable = append(seg.Unreliable, [2]int{int(start), int(start + length)})
			}
			seg.setObjectRanges()
			rep.Segments = append(rep.Segments, seg)
		}
		m.Reps = append(m.Reps, rep)
	}
	return m, nil
}

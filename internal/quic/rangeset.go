package quic

import "sort"

// ByteRange is a half-open byte interval [Start, End).
type ByteRange struct {
	Start, End uint64
}

// Len returns the range length.
func (r ByteRange) Len() uint64 { return r.End - r.Start }

// RangeSet maintains a set of non-overlapping, sorted byte ranges. It is
// used for receive-buffer accounting, ACK ranges over packet numbers, and
// the loss bookkeeping on unreliable streams.
type RangeSet struct {
	ranges []ByteRange // sorted by Start, non-overlapping, non-adjacent
}

// Add inserts [start, end), merging with overlapping or adjacent ranges.
func (s *RangeSet) Add(start, end uint64) {
	if end <= start {
		return
	}
	// Fast paths for in-order arrival: extend or append at the tail
	// without reallocating.
	if n := len(s.ranges); n > 0 {
		last := &s.ranges[n-1]
		if start >= last.Start {
			if start <= last.End {
				if end > last.End {
					last.End = end
				}
				return
			}
			s.ranges = append(s.ranges, ByteRange{start, end})
			return
		}
	} else {
		s.ranges = append(s.ranges, ByteRange{start, end})
		return
	}
	// General case, in place: ranges[i:j] is the run that overlaps or abuts
	// [start, end) — possibly empty — found by binary search. Merge the run
	// into a single slot and shift the tail, reusing the backing array.
	rs := s.ranges
	i := sort.Search(len(rs), func(k int) bool { return rs[k].End >= start })
	j := sort.Search(len(rs), func(k int) bool { return rs[k].Start > end })
	if i == j {
		// Nothing to merge: open a slot at i.
		s.ranges = append(s.ranges, ByteRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = ByteRange{start, end}
		return
	}
	if rs[i].Start < start {
		start = rs[i].Start
	}
	if rs[j-1].End > end {
		end = rs[j-1].End
	}
	rs[i] = ByteRange{start, end}
	n := copy(rs[i+1:], rs[j:])
	s.ranges = rs[:i+1+n]
}

// Contains reports whether [start, end) is fully covered.
func (s *RangeSet) Contains(start, end uint64) bool {
	if end <= start {
		return true
	}
	for _, r := range s.ranges {
		if r.Start <= start && end <= r.End {
			return true
		}
	}
	return false
}

// CoveredBytes returns the total number of bytes covered.
func (s *RangeSet) CoveredBytes() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// AppendGaps appends the uncovered ranges within [start, end) to dst and
// returns the extended slice. Hot paths pass reusable scratch (dst[:0]) so
// the common zero- or one-gap answer costs no allocation.
func (s *RangeSet) AppendGaps(dst []ByteRange, start, end uint64) []ByteRange {
	if end <= start {
		return dst
	}
	// In-order arrival: nothing at or beyond start is covered yet.
	if n := len(s.ranges); n == 0 || s.ranges[n-1].End <= start {
		return append(dst, ByteRange{start, end})
	}
	cur := start
	for _, r := range s.ranges {
		if r.End <= cur {
			continue
		}
		if r.Start >= end {
			break
		}
		if r.Start > cur {
			dst = append(dst, ByteRange{cur, r.Start})
		}
		cur = r.End
		if cur >= end {
			return dst
		}
	}
	return append(dst, ByteRange{cur, end})
}

// CoveredBy reports whether every offset of [start, end) is covered by a or
// by b, without building their union: one two-pointer walk over both sorted
// range lists.
func CoveredBy(a, b *RangeSet, start, end uint64) bool {
	ra, rb := a.ranges, b.ranges
	for cur := start; cur < end; {
		for len(ra) > 0 && ra[0].End <= cur {
			ra = ra[1:]
		}
		for len(rb) > 0 && rb[0].End <= cur {
			rb = rb[1:]
		}
		switch {
		case len(ra) > 0 && ra[0].Start <= cur:
			cur = ra[0].End
		case len(rb) > 0 && rb[0].Start <= cur:
			cur = rb[0].End
		default:
			return false
		}
	}
	return true
}

// Ranges returns the covered ranges (read-only).
func (s *RangeSet) Ranges() []ByteRange { return s.ranges }

// Reset empties s and keeps its storage for the next use.
func (s *RangeSet) Reset() { s.ranges = s.ranges[:0] }

// CopyFrom makes s a copy of src that shares no storage with it, in s's own
// storage (grown, if it must, in one allocation of exactly src's size).
func (s *RangeSet) CopyFrom(src *RangeSet) {
	if cap(s.ranges) < len(src.ranges) {
		s.ranges = make([]ByteRange, 0, len(src.ranges))
	}
	s.ranges = append(s.ranges[:0], src.ranges...)
}

// ContiguousFrom returns the end of the contiguous covered prefix starting
// at start; if start itself is uncovered it returns start.
func (s *RangeSet) ContiguousFrom(start uint64) uint64 {
	for _, r := range s.ranges {
		if r.Start <= start && start < r.End {
			return r.End
		}
	}
	return start
}

// Min returns the smallest covered offset; ok is false when empty.
func (s *RangeSet) Min() (uint64, bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[0].Start, true
}

// Max returns the largest covered offset (exclusive); ok is false when empty.
func (s *RangeSet) Max() (uint64, bool) {
	if len(s.ranges) == 0 {
		return 0, false
	}
	return s.ranges[len(s.ranges)-1].End, true
}

// IsEmpty reports whether no bytes are covered.
func (s *RangeSet) IsEmpty() bool { return len(s.ranges) == 0 }

package quic

import (
	"encoding/binary"
	"testing"
)

// FuzzRangeSet drives the interval set against a brute-force byte-map
// model. The fuzz input is a script of Add operations decoded as
// (start, length) pairs; after each step every query — Contains,
// AppendGaps, CoveredBytes, ContiguousFrom, Min/Max, and the well-formedness
// of Ranges() — must agree with the model. Steps alternate between two
// sets, and after each one AppendGaps (into a non-empty destination) and
// CoveredBy are checked over the window the step touched, one byte wider on
// each side. Before each Add, the lengths of AppendGaps over its range must
// sum to the CoveredBytes it goes on to add.
//
// Run with: go test -fuzz FuzzRangeSet ./internal/quic
func FuzzRangeSet(f *testing.F) {
	f.Add([]byte{0, 4, 8, 4, 4, 4})        // [0,4) [8,12) then bridge [4,8)
	f.Add([]byte{0, 0, 1, 1, 1, 1})        // empty add, duplicate adds
	f.Add([]byte{10, 5, 0, 30, 2, 2})      // add swallowed by a superset
	f.Add([]byte{250, 10, 0, 1, 255, 255}) // near the scripted byte limits
	f.Fuzz(func(t *testing.T, script []byte) {
		const horizon = 1 << 10 // model window; scripted offsets stay far below
		var sets [2]RangeSet
		models := [2][]bool{make([]bool, horizon), make([]bool, horizon)}
		for step := 0; len(script) >= 2; step++ {
			start := uint64(script[0]) * 2
			length := uint64(script[1])
			script = script[2:]
			end := start + length
			s, model := &sets[step%2], models[step%2]
			// What Stream.handleData counts as new bytes: the gaps an Add is
			// about to fill sum to what it adds to the coverage.
			var gapBytes uint64
			for _, g := range s.AppendGaps(nil, start, end) {
				gapBytes += g.Len()
			}
			before := s.CoveredBytes()
			s.Add(start, end)
			if delta := s.CoveredBytes() - before; gapBytes != delta {
				t.Fatalf("step %d: gaps of [%d, %d) sum to %d B, Add covered %d B more", step, start, end, gapBytes, delta)
			}
			for b := start; b < end && b < horizon; b++ {
				model[b] = true
			}
			verifyAgainstModel(t, s, model)
			lo, hi := start, end+1
			if lo > 0 {
				lo--
			}
			verifyWindow(t, &sets[0], &sets[1], models[0], models[1], lo, hi)
			verifyWindow(t, &sets[1], &sets[0], models[1], models[0], start, end)
		}
	})
}

// verifyWindow checks a.AppendGaps and CoveredBy(a, b) over [lo, hi)
// against the byte-map models.
func verifyWindow(t *testing.T, a, b *RangeSet, ma, mb []bool, lo, hi uint64) {
	t.Helper()
	sentinel := ByteRange{Start: 7, End: 7}
	got := a.AppendGaps([]ByteRange{sentinel}, lo, hi)
	if len(got) == 0 || got[0] != sentinel {
		t.Fatalf("AppendGaps(%d, %d) clobbered its destination: %v", lo, hi, got)
	}
	var want []ByteRange
	covered := true
	for x := lo; x < hi; x++ {
		if !ma[x] {
			if n := len(want); n > 0 && want[n-1].End == x {
				want[n-1].End++
			} else {
				want = append(want, ByteRange{Start: x, End: x + 1})
			}
			covered = covered && mb[x]
		}
	}
	if got = got[1:]; len(got) != len(want) {
		t.Fatalf("AppendGaps(%d, %d) = %v, model %v", lo, hi, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendGaps(%d, %d) = %v, model %v", lo, hi, got, want)
		}
	}
	if CoveredBy(a, b, lo, hi) != covered || CoveredBy(b, a, lo, hi) != covered {
		t.Fatalf("CoveredBy(%d, %d) = %v/%v, model %v (a %v, b %v)", lo, hi,
			CoveredBy(a, b, lo, hi), CoveredBy(b, a, lo, hi), covered, a.Ranges(), b.Ranges())
	}
}

func verifyAgainstModel(t *testing.T, s *RangeSet, model []bool) {
	t.Helper()
	var covered uint64
	for _, c := range model {
		if c {
			covered++
		}
	}
	if got := s.CoveredBytes(); got != covered {
		t.Fatalf("CoveredBytes = %d, model %d", got, covered)
	}
	// Ranges() must be sorted, non-empty, non-adjacent, and match the model.
	prevEnd := uint64(0)
	for i, r := range s.Ranges() {
		if r.End <= r.Start {
			t.Fatalf("range %d empty: %+v", i, r)
		}
		if i > 0 && r.Start <= prevEnd {
			t.Fatalf("range %d not coalesced/sorted: %+v after end %d", i, r, prevEnd)
		}
		prevEnd = r.End
	}
	for b := uint64(0); b < uint64(len(model)); b++ {
		if got := s.Contains(b, b+1); got != model[b] {
			t.Fatalf("Contains(%d) = %v, model %v", b, got, model[b])
		}
	}
	// Gaps over the full window are exactly the model's uncovered runs.
	want := uncoveredRuns(model)
	got := s.AppendGaps(nil, 0, uint64(len(model)))
	if len(got) != len(want) {
		t.Fatalf("Gaps: %d runs, model %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("gap %d = %+v, model %+v", i, got[i], want[i])
		}
	}
	// ContiguousFrom(0) is the model's leading covered run.
	lead := uint64(0)
	for lead < uint64(len(model)) && model[lead] {
		lead++
	}
	if got := s.ContiguousFrom(0); got != lead {
		t.Fatalf("ContiguousFrom(0) = %d, model %d", got, lead)
	}
}

func uncoveredRuns(model []bool) []ByteRange {
	var runs []ByteRange
	for b := 0; b < len(model); {
		if model[b] {
			b++
			continue
		}
		start := b
		for b < len(model) && !model[b] {
			b++
		}
		runs = append(runs, ByteRange{Start: uint64(start), End: uint64(b)})
	}
	return runs
}

// FuzzRangeSetWide exercises offsets across the full uint64 domain, where
// a byte-map model is impossible: only the structural invariants and
// conservation between CoveredBytes and Ranges are checked (overflowing
// start+length pairs are skipped — the caller contract is end >= start).
// AppendGaps over the set's span must interleave exactly with Ranges, and
// the set plus its own gaps must cover that span per CoveredBy while the
// set alone does not (unless it has no gaps).
func FuzzRangeSetWide(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s RangeSet
		for len(raw) >= 10 {
			start := binary.LittleEndian.Uint64(raw[:8])
			length := uint64(binary.LittleEndian.Uint16(raw[8:10]))
			raw = raw[10:]
			if start+length < start {
				continue
			}
			s.Add(start, start+length)
			var covered uint64
			prevEnd := uint64(0)
			for i, r := range s.Ranges() {
				if r.End <= r.Start {
					t.Fatalf("range %d empty: %+v", i, r)
				}
				if i > 0 && r.Start <= prevEnd {
					t.Fatalf("range %d overlaps/adjacent: %+v after %d", i, r, prevEnd)
				}
				prevEnd = r.End
				covered += r.End - r.Start
			}
			if got := s.CoveredBytes(); got != covered {
				t.Fatalf("CoveredBytes = %d, ranges sum %d", got, covered)
			}
			if s.IsEmpty() {
				continue
			}
			lo, _ := s.Min()
			hi, _ := s.Max()
			rs := s.Ranges()
			gaps := s.AppendGaps(nil, lo, hi)
			if len(gaps) != len(rs)-1 {
				t.Fatalf("%d gaps between %d ranges", len(gaps), len(rs))
			}
			var holes, none RangeSet
			for i, g := range gaps {
				if g.Start != rs[i].End || g.End != rs[i+1].Start {
					t.Fatalf("gap %d = %+v, want between %+v and %+v", i, g, rs[i], rs[i+1])
				}
				holes.Add(g.Start, g.End)
			}
			if !CoveredBy(&s, &holes, lo, hi) || CoveredBy(&s, &none, lo, hi) != (len(gaps) == 0) {
				t.Fatalf("CoveredBy disagrees with the gaps %v of %v", gaps, rs)
			}
		}
	})
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestNilScopeNoOps calls every exported method of Scope on a nil
// receiver with zero-valued arguments: each must return without panicking
// and with zero-valued results, so a method added without a nil guard
// fails here.
func TestNilScopeNoOps(t *testing.T) {
	nilScope := reflect.ValueOf((*Scope)(nil))
	typ := nilScope.Type()
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for j := range args {
			args[j] = reflect.Zero(m.Type.In(j + 1))
		}
		call := nilScope.Method(i).Call
		if m.Type.IsVariadic() {
			call = nilScope.Method(i).CallSlice
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Scope)(nil).%s panicked: %v", m.Name, r)
				}
			}()
			for k, out := range call(args) {
				if !out.IsZero() {
					t.Errorf("(*Scope)(nil).%s result %d = %v, want zero", m.Name, k, out)
				}
			}
		}()
	}
}

func TestNilScopeZeroAlloc(t *testing.T) {
	var s *Scope
	allocs := testing.AllocsPerRun(200, func() {
		s.Inc(CPacketsSent)
		s.Count(CBytesSent, 1200)
		s.Observe(HRTTMs, 33)
		s.Event(EvLossReport, 4, 100, 1200)
	})
	if allocs != 0 {
		t.Fatalf("nil scope allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledScopeRecordingZeroAlloc(t *testing.T) {
	s := NewScope(nil, Options{TimelineCap: 64})
	allocs := testing.AllocsPerRun(200, func() {
		s.Inc(CPacketsSent)
		s.Count(CBytesSent, 1200)
		s.SetGauge(GBufferMs, 9000)
		s.Observe(HRTTMs, 33)
		s.Event(EvLossReport, 4, 100, 1200)
	})
	if allocs != 0 {
		t.Fatalf("enabled scope recording allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestCountersGaugesHists(t *testing.T) {
	s := NewScope(nil, Options{})
	s.Inc(CSegments)
	s.Count(CSegments, 2)
	s.Count(CBytesReliable, 5000)
	s.SetGauge(GBufferMs, 100)
	s.SetGauge(GBufferMs, 250) // last-value-wins
	s.Observe(HRTTMs, 1)       // first bucket (<=1)
	s.Observe(HRTTMs, 15)      // <=20 bucket
	s.Observe(HRTTMs, 99999)   // overflow
	r := s.Registry()
	if got := r.Counter(CSegments); got != 3 {
		t.Fatalf("CSegments = %d, want 3", got)
	}
	if got := r.Counter(CBytesReliable); got != 5000 {
		t.Fatalf("CBytesReliable = %d, want 5000", got)
	}
	if got := r.Gauge(GBufferMs); got != 250 {
		t.Fatalf("GBufferMs = %d, want 250", got)
	}
	if got := r.HistCount(HRTTMs); got != 3 {
		t.Fatalf("HistCount = %d, want 3", got)
	}
	snap := s.TrialReport().Hists[HRTTMs]
	if snap.Count != 3 || snap.Sum != 1+15+99999 {
		t.Fatalf("snapshot count/sum = %d/%d", snap.Count, snap.Sum)
	}
	bounds := HRTTMs.Bounds()
	if len(snap.Buckets) != len(bounds)+1 {
		t.Fatalf("bucket len = %d, want %d", len(snap.Buckets), len(bounds)+1)
	}
	if snap.Buckets[0] != 1 { // value 1 hits bound 1 inclusively
		t.Fatalf("bucket[0] = %d, want 1", snap.Buckets[0])
	}
	if snap.Buckets[len(bounds)] != 1 { // overflow
		t.Fatalf("overflow bucket = %d, want 1", snap.Buckets[len(bounds)])
	}
	if got, want := snap.Mean(), float64(1+15+99999)/3; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if (HistSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean should be 0")
	}
}

func TestTimelineSeqAndClock(t *testing.T) {
	var now time.Duration
	s := NewScope(func() time.Duration { return now }, Options{TimelineCap: 16})
	now = 5 * time.Millisecond
	s.Event(EvSegmentChosen, 0, 2, 1000)
	now = 9 * time.Millisecond
	s.EventX(EvSegmentDone, 0, 1000, 0, 0.75)
	evs := s.TrialReport().Events
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].At != 5*time.Millisecond || evs[1].At != 9*time.Millisecond {
		t.Fatalf("timestamps = %v,%v", evs[0].At, evs[1].At)
	}
	if evs[0].Kind != EvSegmentChosen || evs[0].B != 2 || evs[0].C != 1000 {
		t.Fatalf("payload mismatch: %+v", evs[0])
	}
	if evs[1].X != 0.75 {
		t.Fatalf("X = %v, want 0.75", evs[1].X)
	}
}

func TestTimelineRingWrap(t *testing.T) {
	s := NewScope(nil, Options{TimelineCap: 4})
	for i := int64(0); i < 10; i++ {
		s.Event(EvRetry, i, 0, 0)
	}
	rep := s.TrialReport()
	if rep.Recorded != 10 {
		t.Fatalf("recorded = %d, want 10", rep.Recorded)
	}
	if rep.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rep.Dropped())
	}
	if len(rep.Events) != 4 {
		t.Fatalf("survivors = %d, want 4", len(rep.Events))
	}
	// Oldest survivor first, seqs contiguous 7..10, payload follows seq.
	for i, ev := range rep.Events {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.A != int64(wantSeq-1) {
			t.Fatalf("event %d = seq %d / A %d, want seq %d / A %d",
				i, ev.Seq, ev.A, wantSeq, wantSeq-1)
		}
	}
}

// TestTimelineGrowsToCapThenWraps: a ring that starts small and doubles up
// to its cap reports the same survivors (seq, time, payload), Recorded and
// Dropped as one sized to the cap up front, at every fill level — empty,
// part-full, at each growth step, exactly full, and wrapped many times over.
func TestTimelineGrowsToCapThenWraps(t *testing.T) {
	for _, tc := range []struct {
		cap     int
		records []int
	}{
		{8, []int{0, 5, 8, 9, 50}},
		{100, []int{0, 5, 32, 33, 64, 65, 100, 101, 250}},
	} {
		for _, n := range tc.records {
			grown := newTimeline(tc.cap)
			eager := Timeline{ring: make([]Event, tc.cap), cap: tc.cap}
			for i := 0; i < n; i++ {
				at := time.Duration(i) * time.Millisecond
				grown.record(at, EvRetry, int64(i), 1, 2, 0.5)
				eager.record(at, EvRetry, int64(i), 1, 2, 0.5)
			}
			slots := 0 // what n records need: the start size doubled until they fit, at most cap
			for n > slots && slots < tc.cap {
				slots = min(max(2*slots, timelineStart), tc.cap)
			}
			if len(grown.ring) != slots {
				t.Errorf("cap %d, %d records: ring has %d slots, want %d", tc.cap, n, len(grown.ring), slots)
			}
			if grown.Recorded() != eager.Recorded() || grown.Dropped() != eager.Dropped() {
				t.Errorf("cap %d, %d records: recorded/dropped %d/%d, eager ring %d/%d",
					tc.cap, n, grown.Recorded(), grown.Dropped(), eager.Recorded(), eager.Dropped())
			}
			if got, want := grown.Events(), eager.Events(); !slices.Equal(got, want) {
				t.Errorf("cap %d, %d records: survivors differ from the eager ring's:\n got %v\nwant %v", tc.cap, n, got, want)
			}
		}
	}
}

// recordWorkload drives a scope through a fixed mixed sequence.
func recordWorkload(s *Scope) {
	var now time.Duration
	for i := int64(0); i < 50; i++ {
		now += time.Duration(i) * time.Millisecond
		s.Inc(CPacketsSent)
		s.Count(CBytesSent, uint64(1200+i))
		s.Observe(HRTTMs, 10+i%40)
		s.EventX(EvSegmentChosen, i, i%5, 1000*i, float64(i)/50)
		if i%7 == 0 {
			s.Event(EvLossReport, i, 100, 1200)
		}
	}
}

func TestDeterministicExport(t *testing.T) {
	render := func() (string, string) {
		var clock time.Duration
		s := NewScope(func() time.Duration { clock += time.Millisecond; return clock }, Options{TimelineCap: 32})
		recordWorkload(s)
		rep := Merge([]*TrialReport{s.TrialReport()})
		var j, c bytes.Buffer
		if err := rep.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Fatal("JSONL output not deterministic")
	}
	if c1 != c2 {
		t.Fatal("CSV output not deterministic")
	}
}

func TestJSONLParsesBack(t *testing.T) {
	s := NewScope(nil, Options{TimelineCap: 8})
	recordWorkload(s)
	rep := Merge([]*TrialReport{nil, s.TrialReport()})
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	var lastSeq uint64
	for sc.Scan() {
		lines++
		var rec struct {
			Trial int     `json:"trial"`
			Seq   uint64  `json:"seq"`
			TMs   float64 `json:"t_ms"`
			Kind  string  `json:"kind"`
			A     int64   `json:"a"`
			B     int64   `json:"b"`
			C     int64   `json:"c"`
			X     float64 `json:"x"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Trial != 1 {
			t.Fatalf("trial = %d, want 1 (stamped by Merge)", rec.Trial)
		}
		if rec.Kind == "unknown_event" || rec.Kind == "" {
			t.Fatalf("bad kind on line %d: %q", lines, rec.Kind)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
	}
	if lines != 8 { // ring cap survivors only
		t.Fatalf("got %d lines, want 8", lines)
	}
}

func TestCSVShapeAndTotals(t *testing.T) {
	mk := func(segments uint64) *TrialReport {
		s := NewScope(nil, Options{TimelineCap: 4})
		s.Count(CSegments, segments)
		return s.TrialReport()
	}
	rep := Merge([]*TrialReport{mk(3), mk(4)})
	if rep.Counter(CSegments) != 7 {
		t.Fatalf("total segments = %d, want 7", rep.Counter(CSegments))
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(rows) != 4 { // header + 2 trials + total
		t.Fatalf("got %d rows, want 4:\n%s", len(rows), buf.String())
	}
	wantCols := 2 + int(NumCounters) + 1 // trial, session, counters, failed
	for i, row := range rows {
		if got := len(strings.Split(row, ",")); got != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, got, wantCols)
		}
	}
	if !strings.HasPrefix(rows[0], "trial,session,packets_sent,") {
		t.Fatalf("unexpected header: %s", rows[0])
	}
	if !strings.HasPrefix(rows[3], "total,-,") {
		t.Fatalf("last row should be total: %s", rows[3])
	}
}

// MergeSessions stamps both indices in (trial, session) order, skips nil
// cells, and surfaces the session dimension in the JSONL export.
func TestMergeSessionsStamping(t *testing.T) {
	mk := func() *TrialReport {
		s := NewScope(nil, Options{TimelineCap: 4})
		s.Inc(CSegments)
		s.Event(EvStartup, 0, 0, 0)
		return s.TrialReport()
	}
	rep := MergeSessions([][]*TrialReport{
		{mk(), mk()},
		{mk(), nil, mk()},
	})
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 2}}
	if len(rep.Trials) != len(want) {
		t.Fatalf("%d reports, want %d", len(rep.Trials), len(want))
	}
	for i, tr := range rep.Trials {
		if tr.Trial != want[i][0] || tr.Session != want[i][1] {
			t.Fatalf("report %d stamped (%d,%d), want (%d,%d)",
				i, tr.Trial, tr.Session, want[i][0], want[i][1])
		}
	}
	if rep.Counter(CSegments) != 4 {
		t.Fatalf("totals fold %d segments, want 4", rep.Counter(CSegments))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	i := 0
	for sc.Scan() {
		var rec struct {
			Trial   int `json:"trial"`
			Session int `json:"session"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rec.Trial != want[i][0] || rec.Session != want[i][1] {
			t.Fatalf("line %d carries (%d,%d), want (%d,%d)",
				i, rec.Trial, rec.Session, want[i][0], want[i][1])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%d JSONL lines, want %d", i, len(want))
	}
}

func TestSummaryAndKindCounts(t *testing.T) {
	s := NewScope(nil, Options{})
	s.Count(CRebuffers, 2)
	s.Observe(HStallMs, 400)
	s.Event(EvRebufferStart, 3, 0, 0)
	s.Event(EvRebufferStop, 3, 0, 0)
	s.Event(EvRebufferStart, 5, 0, 0)
	rep := Merge([]*TrialReport{s.TrialReport()})
	sum := rep.Summary()
	if !strings.Contains(sum, "rebuffers = 2") || !strings.Contains(sum, "stall_ms") {
		t.Fatalf("summary missing fields:\n%s", sum)
	}
	kinds := rep.KindCounts()
	want := []string{"rebuffer_start=2", "rebuffer_stop=1"}
	if len(kinds) != len(want) || kinds[0] != want[0] || kinds[1] != want[1] {
		t.Fatalf("kind counts = %v, want %v", kinds, want)
	}
	var empty *Report
	if empty.Counter(CRebuffers) != 0 || empty.KindCounts() != nil {
		t.Fatal("nil report accessors should be zero-valued")
	}
	if err := empty.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestNameTablesComplete(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" || c.String() == "unknown_counter" {
			t.Fatalf("counter %d has no name", c)
		}
	}
	if Counter(255).String() != "unknown_counter" {
		t.Fatal("out-of-range counter name")
	}
	for g := Gauge(0); g < NumGauges; g++ {
		if g.String() == "" || g.String() == "unknown_gauge" {
			t.Fatalf("gauge %d has no name", g)
		}
	}
	for h := Hist(0); h < NumHists; h++ {
		if h.String() == "" || h.String() == "unknown_hist" {
			t.Fatalf("hist %d has no name", h)
		}
		if len(h.Bounds()) == 0 || len(h.Bounds()) > maxBuckets {
			t.Fatalf("hist %d bounds out of range", h)
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" || k.String() == "unknown_event" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(255).String() != "unknown_event" {
		t.Fatal("out-of-range kind name")
	}
}

// Shard-tagged reports must carry a shard field in both exports; untagged
// reports must emit byte-for-byte the same format as before sharding
// existed — that equality is what lets a merged campaign's exports match an
// unsharded run's exactly.
func TestShardTaggedExports(t *testing.T) {
	build := func() *Report {
		s := NewScope(nil, Options{TimelineCap: 8})
		recordWorkload(s)
		return Merge([]*TrialReport{s.TrialReport()})
	}
	plain := build()
	if plain.ShardTag != -1 {
		t.Fatalf("MergeSessions must leave reports untagged, got %d", plain.ShardTag)
	}
	tagged := build()
	tagged.ShardTag = 2

	var pj, tj, pc, tc bytes.Buffer
	if err := plain.WriteJSONL(&pj); err != nil {
		t.Fatal(err)
	}
	if err := tagged.WriteJSONL(&tj); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteCSV(&pc); err != nil {
		t.Fatal(err)
	}
	if err := tagged.WriteCSV(&tc); err != nil {
		t.Fatal(err)
	}

	if strings.Contains(pj.String(), `"shard"`) {
		t.Fatal("untagged JSONL must not carry a shard field")
	}
	if strings.Contains(pc.String(), "shard") {
		t.Fatal("untagged CSV must not carry a shard column")
	}
	sc := bufio.NewScanner(&tj)
	for sc.Scan() {
		var rec struct {
			Shard *int `json:"shard"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("tagged JSONL line invalid: %v", err)
		}
		if rec.Shard == nil || *rec.Shard != 2 {
			t.Fatalf("tagged JSONL line missing shard=2: %s", sc.Text())
		}
	}
	lines := strings.Split(strings.TrimSuffix(tc.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "trial,session,shard,") {
		t.Fatalf("tagged CSV header missing shard column: %s", lines[0])
	}
	for _, ln := range lines[1:] {
		cols := strings.Split(ln, ",")
		if cols[2] != "2" {
			t.Fatalf("tagged CSV row shard column = %q, want 2: %s", cols[2], ln)
		}
	}

	// Clearing the tag restores the canonical bytes exactly.
	tagged.ShardTag = -1
	var uj, uc bytes.Buffer
	if err := tagged.WriteJSONL(&uj); err != nil {
		t.Fatal(err)
	}
	if err := tagged.WriteCSV(&uc); err != nil {
		t.Fatal(err)
	}
	if uj.String() != pj.String() || uc.String() != pc.String() {
		t.Fatal("untagging must restore canonical export bytes")
	}
}

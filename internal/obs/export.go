package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// TrialReport is the exportable snapshot of one trial's scope. In swarm
// runs each concurrent session records into its own scope, so one trial
// yields one TrialReport per session, distinguished by Session.
type TrialReport struct {
	Trial    int  // trial index within the cell; stamped by the harness
	Session  int  // session index within the trial; 0 outside swarm mode
	Failed   bool // the trial died; this is a placeholder, not a snapshot
	Counters [NumCounters]uint64
	Gauges   [NumGauges]int64
	Hists    [NumHists]HistSnapshot
	Events   []Event // surviving timeline events, seq order
	Recorded uint64  // total events recorded (>= len(Events) when evicted)
}

// FailedTrialReport builds the placeholder report the harness substitutes
// for a trial that died before its scopes could be snapshotted: an explicit
// Failed marker carrying a single trial_failed timeline event stamped at
// the failure's virtual time. Substituting (rather than skipping) keeps
// exports aligned — every trial occupies exactly one slot — and makes the
// failure visible in both the CSV (failed column) and the JSONL stream.
func FailedTrialReport(at time.Duration) *TrialReport {
	return &TrialReport{
		Failed:   true,
		Events:   []Event{{Seq: 1, At: at, Kind: EvTrialFailed}},
		Recorded: 1,
	}
}

// Dropped returns how many timeline events the ring evicted.
func (r *TrialReport) Dropped() uint64 {
	return r.Recorded - uint64(len(r.Events))
}

// Report aggregates the per-trial reports of one experiment cell.
type Report struct {
	Trials []*TrialReport
	Totals [NumCounters]uint64 // counters summed across trials
	// ShardTag is the shard index this report was produced by, or -1 when
	// the run was unsharded (or the report is a merged whole). A tagged
	// report's JSONL/CSV exports carry an extra shard field so per-shard
	// files are self-describing; an untagged report emits exactly the
	// pre-shard format, which is what makes a merged export byte-identical
	// to a single-process run's.
	ShardTag int
}

// Merge builds a cell-level report from per-trial reports, stamping each
// with its trial index. Nil entries (trials run without telemetry) are
// skipped, so the result is deterministic for a given configuration
// regardless of worker scheduling.
func Merge(trials []*TrialReport) *Report {
	cells := make([][]*TrialReport, len(trials))
	for i, t := range trials {
		cells[i] = []*TrialReport{t}
	}
	return MergeSessions(cells)
}

// MergeSessions builds a cell-level report from per-trial, per-session
// reports (swarm mode: trials[ti][si] is trial ti's session si), stamping
// each report with both indices. Reports land in (trial, session) order, so
// the export is deterministic regardless of worker scheduling. Nil entries
// are skipped.
func MergeSessions(trials [][]*TrialReport) *Report {
	rep := &Report{ShardTag: -1}
	for ti, sessions := range trials {
		for si, t := range sessions {
			if t == nil {
				continue
			}
			t.Trial = ti
			t.Session = si
			rep.Trials = append(rep.Trials, t)
			for c := Counter(0); c < NumCounters; c++ {
				rep.Totals[c] += t.Counters[c]
			}
		}
	}
	return rep
}

// Counter returns a counter's cell-wide total.
func (r *Report) Counter(c Counter) uint64 {
	if r == nil {
		return 0
	}
	return r.Totals[c]
}

// HistMerged returns one histogram merged across all trials.
func (r *Report) HistMerged(h Hist) HistSnapshot {
	out := HistSnapshot{Buckets: make([]uint64, len(histDefs[h].bounds)+1)}
	if r == nil {
		return out
	}
	for _, t := range r.Trials {
		s := t.Hists[h]
		out.Count += s.Count
		out.Sum += s.Sum
		for i, b := range s.Buckets {
			out.Buckets[i] += b
		}
	}
	return out
}

// WriteJSONL writes every trial's timeline as one JSON object per line:
//
//	{"trial":0,"session":0,"seq":12,"t_ms":1533.250,"kind":"segment_chosen","a":3,"b":9,"c":182000,"x":0.9871}
//
// Field order and number formatting are fixed, so identical reports produce
// identical bytes. The encoding is hand-rolled (strconv only): every field
// is a number or a bare snake_case kind name, so no JSON escaping is needed.
func (r *Report) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b []byte
	for _, t := range r.Trials {
		for _, ev := range t.Events {
			b = appendEventJSON(b[:0], t.Trial, t.Session, r.ShardTag, ev)
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return nil
}

func appendEventJSON(b []byte, trial, session, shard int, ev Event) []byte {
	b = append(b, `{"trial":`...)
	b = strconv.AppendInt(b, int64(trial), 10)
	b = append(b, `,"session":`...)
	b = strconv.AppendInt(b, int64(session), 10)
	if shard >= 0 {
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(shard), 10)
	}
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"t_ms":`...)
	b = strconv.AppendFloat(b, float64(ev.At)/float64(time.Millisecond), 'f', 3, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","a":`...)
	b = strconv.AppendInt(b, ev.A, 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, ev.B, 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, ev.C, 10)
	b = append(b, `,"x":`...)
	b = strconv.AppendFloat(b, ev.X, 'f', 4, 64)
	b = append(b, "}\n"...)
	return b
}

// WriteCSV writes the per-trial counters in wide format: a header row of
// counter names, one row per (trial, session) report, and a final "total"
// row. Column order follows the Counter enum, so output is deterministic.
// The trailing "failed" column marks failed-trial placeholder rows (1) and
// counts them on the total row.
func (r *Report) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("trial,session")
	tagged := r.ShardTag >= 0
	if tagged {
		sb.WriteString(",shard")
	}
	for c := Counter(0); c < NumCounters; c++ {
		sb.WriteByte(',')
		sb.WriteString(c.String())
	}
	sb.WriteString(",failed\n")
	shardCol := ""
	if tagged {
		shardCol = "," + strconv.Itoa(r.ShardTag)
	}
	var nfailed uint64
	row := func(label string, vals *[NumCounters]uint64, failed uint64) {
		sb.WriteString(label)
		for c := Counter(0); c < NumCounters; c++ {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatUint(vals[c], 10))
		}
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatUint(failed, 10))
		sb.WriteByte('\n')
	}
	for _, t := range r.Trials {
		var f uint64
		if t.Failed {
			f = 1
			nfailed++
		}
		row(strconv.Itoa(t.Trial)+","+strconv.Itoa(t.Session)+shardCol, &t.Counters, f)
	}
	row("total,-"+shardCol, &r.Totals, nfailed)
	_, err := io.WriteString(w, sb.String())
	return err
}

// Summary renders a compact human-readable digest: non-zero cell totals in
// enum order plus histogram means, one per line.
func (r *Report) Summary() string {
	if r == nil || len(r.Trials) == 0 {
		return "telemetry: no trials recorded\n"
	}
	var sb strings.Builder
	sb.WriteString("telemetry totals (" + strconv.Itoa(len(r.Trials)) + " trials):\n")
	for c := Counter(0); c < NumCounters; c++ {
		if r.Totals[c] == 0 {
			continue
		}
		sb.WriteString("  " + c.String() + " = " + strconv.FormatUint(r.Totals[c], 10) + "\n")
	}
	for h := Hist(0); h < NumHists; h++ {
		m := r.HistMerged(h)
		if m.Count == 0 {
			continue
		}
		sb.WriteString("  " + h.String() + ": n=" + strconv.FormatUint(m.Count, 10) +
			" mean=" + strconv.FormatFloat(m.Mean(), 'f', 1, 64) + "\n")
	}
	var dropped uint64
	for _, t := range r.Trials {
		dropped += t.Dropped()
	}
	if dropped > 0 {
		sb.WriteString("  (timeline evicted " + strconv.FormatUint(dropped, 10) + " events)\n")
	}
	return sb.String()
}

// Export writes the JSONL timeline and/or the per-trial counter CSV to the
// named destinations — "" skips one, "-" means stdout — and notes each file
// it wrote on stdout: voxel-sim's export step, for a run and a merged
// campaign alike.
func (r *Report) Export(jsonlPath, csvPath string) error {
	write := func(path string, emit func(w io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return emit(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
		return nil
	}
	if err := write(jsonlPath, r.WriteJSONL); err != nil {
		return err
	}
	return write(csvPath, r.WriteCSV)
}

// KindCounts tallies surviving timeline events by kind across all trials,
// returned as sorted "name=count" strings for stable display.
func (r *Report) KindCounts() []string {
	if r == nil {
		return nil
	}
	var counts [NumKinds]uint64
	for _, t := range r.Trials {
		for _, ev := range t.Events {
			if ev.Kind < NumKinds {
				counts[ev.Kind]++
			}
		}
	}
	var out []string
	for k := Kind(0); k < NumKinds; k++ {
		if counts[k] > 0 {
			out = append(out, k.String()+"="+strconv.FormatUint(counts[k], 10))
		}
	}
	sort.Strings(out)
	return out
}

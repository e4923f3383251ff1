package player

import (
	"slices"
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// recorder wraps the algorithm of player p and logs, per call, the segment
// index, how many decision spaces p had built by then, a copy of the Options
// it was handed, and what came back.
type recorder struct {
	abr.Algorithm
	p     *Player
	calls []optsCall
}

type optsCall struct {
	index      int
	builds     int               // p.builds at the call
	perQuality [][]abr.Candidate // a copy: the player rebuilds its Options in place
	sleep      bool              // Decide answered "buffer full, re-ask"
	restart    bool              // Abandon answered Restart
}

func (r *recorder) log(st abr.State, o abr.Options) *optsCall {
	c := optsCall{index: st.Index, builds: r.p.builds}
	for _, cs := range o.PerQuality {
		c.perQuality = append(c.perQuality, slices.Clone(cs))
	}
	r.calls = append(r.calls, c)
	return &r.calls[len(r.calls)-1]
}

func (r *recorder) Decide(st abr.State, o abr.Options) abr.Decision {
	d := r.Algorithm.Decide(st, o)
	r.log(st, o).sleep = d.Sleep > 0
	return d
}

func (r *recorder) Abandon(st abr.State, o abr.Options, p abr.Progress) abr.AbandonAction {
	a := r.Algorithm.Abandon(st, o, p)
	r.log(st, o).restart = a.Kind == abr.Restart
	return a
}

// freshOptions is segment idx's decision space built into arrays of its own.
func freshOptions(p *Player, idx int) abr.Options {
	q := &Player{man: p.man, cfg: p.cfg, flat: make([]abr.Candidate, 0, cap(p.flat)), perQuality: make([][]abr.Candidate, 0, cap(p.perQuality))}
	return q.buildOptions(idx)
}

func TestOptionsBuiltOncePerSegment(t *testing.T) {
	// The player builds a segment's Options once, when it reaches the segment
	// (segment 0's in New), into arrays it owns and overwrites on the next
	// reach: every look at segment i — the decision, its buffer-full re-asks,
	// abandonment polls and restarts — reads build i+1, and that build is what
	// arrays of its own would hold.
	for _, tc := range []struct {
		name  string
		alg   abr.Algorithm
		mode  Mode
		trace *trace.Trace
	}{
		// The fast phase fills the buffer (re-asks), the collapse strands a
		// big download (restarts).
		{"BOLA", abr.NewBola(), ModeReliable, trace.Step("step-down", 20e6, 0.8e6, 24*time.Second, 3600)},
		// A different number of virtual levels per quality from segment to
		// segment: nothing of the previous segment's space may show through.
		{"ABR*", abr.NewABRStar(), ModeVoxel, trace.Verizon()},
	} {
		rec := &recorder{Algorithm: tc.alg}
		r := buildRig(t, tc.trace, 32, 10, Config{Algorithm: rec, Mode: tc.mode, BufferSegments: 2})
		rec.p = r.pl
		r.run(t, 30*time.Minute)

		var sleeps, restarts, repeats int
		sizes := map[int]bool{} // candidates per decision space
		for i, cur := range rec.calls {
			sizes[len(slices.Concat(cur.perQuality...))] = true
			if cur.builds != cur.index+1 {
				t.Fatalf("%s call %d: segment %d reads build %d, want %d", tc.name, i, cur.index, cur.builds, cur.index+1)
			}
			fresh := freshOptions(r.pl, cur.index)
			if !slices.EqualFunc(cur.perQuality, fresh.PerQuality, slices.Equal) {
				t.Fatalf("%s call %d: segment %d's Options differ from a fresh build", tc.name, i, cur.index)
			}
			if i > 0 {
				switch prev := rec.calls[i-1]; {
				case cur.index == prev.index:
					repeats++
				case cur.index != prev.index+1:
					t.Fatalf("%s call %d: segment index jumped %d → %d", tc.name, i, prev.index, cur.index)
				}
			}
			if cur.sleep {
				sleeps++
			}
			if cur.restart {
				restarts++
			}
		}
		if got, want := r.pl.builds, r.m.NumSegments(); got != want {
			t.Fatalf("%s: %d builds for %d segments", tc.name, got, want)
		}
		if tc.mode == ModeReliable && (sleeps == 0 || restarts == 0 || repeats == 0) {
			t.Fatalf("trace exercised %d re-asks, %d restarts, %d repeat looks: need all three", sleeps, restarts, repeats)
		}
		if tc.mode == ModeVoxel && len(sizes) < 2 {
			t.Fatalf("every segment offered the same number of candidates (%v)", sizes)
		}
	}
}

func TestBetaWithoutLevelOffersFullSegmentsOnly(t *testing.T) {
	// BETA reads its virtual level off the manifest. A manifest that does
	// not carry one — stripped, decoded from the wire, or never enriched —
	// has the zero level, which must mean "no level", not "a 0-byte one".
	views := []struct {
		name string
		view func(*dash.Manifest) *dash.Manifest
	}{
		{"stripped", (*dash.Manifest).Strip},
		{"decoded", func(m *dash.Manifest) *dash.Manifest {
			data, err := m.EncodeMPD()
			if err != nil {
				t.Fatal(err)
			}
			out, err := dash.DecodeMPD(data)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"plain", func(m *dash.Manifest) *dash.Manifest {
			v := video.MustLoad(m.Title)
			v.Segments = m.NumSegments()
			return dash.Build(v, dash.BuildOptions{})
		}},
	}
	for _, vw := range views {
		name, view := vw.name, vw.view
		rec := &recorder{Algorithm: abr.NewBeta()}
		tr := trace.Constant("c", 5e6, 3600)
		r := buildRigView(t, tr, 32, 4, Config{Algorithm: rec, Mode: ModeBeta, BufferSegments: 3}, view)
		rec.p = r.pl
		res := r.run(t, 20*time.Minute)
		for _, c := range rec.calls {
			for q, cands := range c.perQuality {
				if len(cands) != 1 || cands[0].Virtual || cands[0].Bytes != cands[0].FullBytes {
					t.Fatalf("%s: segment %d Q%d offers %+v, want the full segment only", name, c.index, q, cands)
				}
			}
		}
		for _, seg := range res.Segments {
			if seg.Virtual || seg.GotBytes != r.m.Segment(seg.Quality, seg.Index).Bytes {
				t.Fatalf("%s: segment %d delivered %d bytes (virtual=%v), want the full segment", name, seg.Index, seg.GotBytes, seg.Virtual)
			}
		}
	}
}

func TestDecideDoesNotCopyCandidates(t *testing.T) {
	// ABR* decides over every candidate of the segment. It reads them from
	// the array buildOptions laid out — a decision (and there is one per
	// 250 ms re-ask while the buffer is full) does not copy the list.
	alg := abr.NewABRStar()
	r := buildRig(t, trace.Constant("c", 8e6, 600), 32, 4, Config{Algorithm: alg, Mode: ModeVoxel, BufferSegments: 3})
	r.pl.reach(2)
	opts := r.pl.opts
	all := opts.All(nil)
	var n int
	for _, cs := range opts.PerQuality {
		n += len(cs)
	}
	if len(all) != n || n <= len(opts.PerQuality) {
		t.Fatalf("All() has %d candidates, PerQuality %d over %d qualities: want all of them, virtual levels included", len(all), n, len(opts.PerQuality))
	}
	top := opts.PerQuality[len(opts.PerQuality)-1]
	if &all[0] != &opts.PerQuality[0][0] || &all[n-1] != &top[len(top)-1] {
		t.Fatal("All() is not the array PerQuality's windows point into")
	}
	st := abr.State{Buffer: 6 * time.Second, BufferCap: 12 * time.Second, Throughput: 6e6, LastQuality: 7, Index: 2, Total: 4}
	// Nor does it allocate its utility vector: ABR* keeps one.
	if mallocs := testing.AllocsPerRun(100, func() { alg.Decide(st, opts) }); mallocs != 0 {
		t.Fatalf("Decide does %.0f mallocs over %d candidates, want 0", mallocs, n)
	}
}

package player

import (
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// recorder wraps an algorithm and logs, per call, the segment index, where
// the Options it was handed live, and what came back.
type recorder struct {
	abr.Algorithm
	calls []optsCall
}

type optsCall struct {
	index   int
	outer   *[]abr.Candidate // &opts.PerQuality[0]: the per-quality table
	first   *abr.Candidate   // &opts.PerQuality[0][0]: the candidate backing
	sleep   bool             // Decide answered "buffer full, re-ask"
	restart bool             // Abandon answered Restart
	opts    abr.Options
}

func (r *recorder) log(st abr.State, o abr.Options) *optsCall {
	r.calls = append(r.calls, optsCall{index: st.Index, outer: &o.PerQuality[0], first: &o.PerQuality[0][0], opts: o})
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

func TestOptionsBuiltOncePerSegment(t *testing.T) {
	// BOLA over a step-down trace with a small buffer: the fast phase fills
	// the buffer (re-asks), the collapse strands a big download (restarts).
	// Every look at one segment must read the one Options value built when
	// the player reached it; the next segment gets a fresh one.
	tr := trace.Step("step-down", 20e6, 0.8e6, 24*time.Second, 3600)
	rec := &recorder{Algorithm: abr.NewBola()}
	r := buildRig(t, tr, 32, 10, Config{Algorithm: rec, Mode: ModeReliable, BufferSegments: 2})
	r.run(t, 30*time.Minute)

	var sleeps, restarts, repeats int
	for i := 1; i < len(rec.calls); i++ {
		prev, cur := rec.calls[i-1], rec.calls[i]
		same := cur.outer == prev.outer && cur.first == prev.first
		switch {
		case cur.index == prev.index && !same:
			t.Fatalf("call %d: segment %d's Options were rebuilt", i, cur.index)
		case cur.index == prev.index:
			repeats++
		case cur.index != prev.index+1:
			t.Fatalf("call %d: segment index jumped %d → %d", i, prev.index, cur.index)
		case same:
			t.Fatalf("call %d: segment %d reuses segment %d's Options", i, cur.index, prev.index)
		}
		if cur.sleep {
			sleeps++
		}
		if cur.restart {
			restarts++
		}
	}
	if sleeps == 0 || restarts == 0 || repeats == 0 {
		t.Fatalf("trace exercised %d re-asks, %d restarts, %d repeat looks: need all three", sleeps, restarts, repeats)
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
		res := r.run(t, 20*time.Minute)
		for _, c := range rec.calls {
			for q, cands := range c.opts.PerQuality {
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
	all := opts.All()
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
	// What is left is the decision's own utility vector.
	if mallocs := testing.AllocsPerRun(100, func() { alg.Decide(st, opts) }); mallocs > 1 {
		t.Fatalf("Decide does %.0f mallocs over %d candidates, budget 1", mallocs, n)
	}
}

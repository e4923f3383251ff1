package player

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/netem"
	"voxel/internal/obs"
	"voxel/internal/prep"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// This file holds the player's previous delivery bookkeeping as a reference
// implementation: a third pair of range sets per download, fed packet by
// packet from the responses' OnBody/OnLost callbacks through mapBody. The
// differential test below replays every chunk and loss report the responses
// deliver through it and requires the coverage the player reads from the
// responses at settle time to be the same.

// mapBody translates a chunk in concatenated-body space into object ranges.
func mapBody(spec httpsim.RangeSpec, bodyOff, n int64, fn func(objStart, objEnd int64)) {
	pos := int64(0)
	for _, r := range spec {
		l := r[1] - r[0]
		if bodyOff < pos+l && bodyOff+n > pos {
			s := r[0] + max(bodyOff-pos, 0)
			e := r[0] + min(bodyOff+n-pos, l)
			if e > s {
				fn(s, e)
			}
		}
		pos += l
		if pos >= bodyOff+n {
			break
		}
	}
}

// refDownload is the reference's state for one download.
type refDownload struct {
	dl             *download
	rel, body      *httpsim.Response // dl's requests (the record drops them when it settles)
	received, lost quic.RangeSet     // segment offsets
	gotBytes       int

	relDone, relFailed   bool
	bodyDone, bodyFailed bool
}

// markMissing is the reference's "planned but never arrived ⇒ lost".
func (r *refDownload) markMissing(spec httpsim.RangeSpec) {
	base := r.dl.segStart
	for _, rr := range spec {
		for _, g := range r.received.AppendGaps(nil, uint64(rr[0]-base), uint64(rr[1]-base)) {
			r.lost.Add(g.Start, g.End)
		}
	}
}

// tap sits between the player and its algorithm. Every request the player
// issues follows a Decide or Abandon call within the same simulator event, so
// an event scheduled from those calls runs after the requests exist and
// before any byte of them can arrive: scan wraps the new responses' callbacks
// there, reference first, player's own hook second.
type tap struct {
	abr.Algorithm
	t     *testing.T
	s     *sim.Sim
	p     *Player
	scope *obs.Scope

	abandon    func(abr.Progress) (abr.AbandonAction, bool) // scripted abandonment
	onDownload func(*download)                              // called as a download is tapped
	onChunk    func(*refDownload)                           // called per body chunk
	onRepair   func(got int64)                              // called per repair chunk
	stop       bool                                         // a scenario ends the run after the current event

	cur     *refDownload
	repair  *httpsim.Response
	counted uint64         // bytes the two delivery counters must show
	rows    map[string]int // behaviours exercised, by name
}

func (tp *tap) Decide(st abr.State, o abr.Options) abr.Decision {
	tp.s.Schedule(0, tp.scan)
	return tp.Algorithm.Decide(st, o)
}

func (tp *tap) Abandon(st abr.State, o abr.Options, pr abr.Progress) abr.AbandonAction {
	tp.s.Schedule(0, tp.scan)
	if tp.abandon != nil {
		if a, ok := tp.abandon(pr); ok {
			return a
		}
	}
	return tp.Algorithm.Abandon(st, o, pr)
}

func sameSet(a, b *quic.RangeSet) bool { return slices.Equal(a.Ranges(), b.Ranges()) }

// scan retires the reference of a download the player is done with and taps
// whatever is new.
func (tp *tap) scan() {
	p, t := tp.p, tp.t
	if ref := tp.cur; ref != nil && p.dl != ref.dl {
		tp.cur = nil
		if now := p.downloads[ref.dl.index]; now != ref.dl {
			// Restarted: the coverage is discarded, the bytes are waste.
			tp.rows["restarted"]++
			if now.restarts != ref.dl.restarts+1 || now.wasted != ref.dl.wasted+ref.gotBytes {
				t.Errorf("segment %d restart: restarts %d wasted %d, reference %d and %d",
					ref.dl.index, now.restarts, now.wasted, ref.dl.restarts+1, ref.dl.wasted+ref.gotBytes)
			}
		} else {
			tp.settled(ref)
		}
	}
	if dl := p.dl; dl != nil && tp.cur == nil {
		tp.tapDownload(dl)
	}
	if resp := p.retx; resp != nil && resp != tp.repair {
		tp.tapRepair(resp)
	}
}

// settled compares a completed or cut download with its reference and files
// it under the behaviours it exercised.
func (tp *tap) settled(ref *refDownload) {
	t, dl := tp.t, ref.dl
	if !sameSet(&dl.received, &ref.received) || !sameSet(&dl.lost, &ref.lost) {
		t.Errorf("segment %d: coverage differs from the per-chunk reference\nreceived %v\nreference %v\nlost      %v\nreference %v",
			dl.index, dl.received.Ranges(), ref.received.Ranges(), dl.lost.Ranges(), ref.lost.Ranges())
	}
	if dl.gotBytes != ref.gotBytes {
		t.Errorf("segment %d: gotBytes %d, reference %d", dl.index, dl.gotBytes, ref.gotBytes)
	}
	res := tp.p.results.Segments[dl.resultIx]
	if res.Index != dl.index || res.LostBytes != int(ref.lost.CoveredBytes()) {
		t.Errorf("segment %d: result %+v, reference lost %d", dl.index, res, ref.lost.CoveredBytes())
	}
	switch rel := ref.rel; {
	case ref.relFailed || ref.bodyFailed:
		tp.rows["failed"]++
	case rel != nil && !ref.relDone:
		// (1) A reliable part still in flight at a cut counts for nothing.
		tp.rows["cut before the reliable part completed"]++
		for _, rr := range rel.Ranges {
			s, e := uint64(rr[0]-dl.segStart), uint64(rr[1]-dl.segStart)
			if gaps := dl.received.AppendGaps(nil, s, e); len(gaps) != 1 || gaps[0] != (quic.ByteRange{Start: s, End: e}) {
				t.Errorf("segment %d: reliable range %v credited though its response never completed", dl.index, rr)
			}
		}
		if want := int(ref.body.BytesReceived()); dl.gotBytes > want {
			t.Errorf("segment %d: gotBytes %d includes reliable bytes (body delivered %d)", dl.index, dl.gotBytes, want)
		}
	case ref.body != nil && !ref.bodyDone:
		tp.rows["cut"]++
	default:
		tp.rows["completed"]++
	}
	if rel := ref.rel; rel != nil && ref.relDone && !ref.relFailed && rel.BodyLen != rel.Ranges.TotalBytes() {
		// (2) A completed reliable response is credited in full whatever it
		// carried; ref.received already holds the whole spec.
		tp.rows["reliable part credited whatever the response carried"]++
		if rel.Status == 206 {
			t.Errorf("segment %d: short reliable body but status %d", dl.index, rel.Status)
		}
	}
}

func (tp *tap) tapDownload(dl *download) {
	ref := &refDownload{dl: dl, rel: dl.reliable, body: dl.body, relDone: dl.reliable == nil}
	tp.cur = ref
	base := dl.segStart
	if rel := dl.reliable; rel != nil {
		spec := rel.Ranges
		onComplete, onFail := rel.OnComplete, rel.OnFail
		rel.OnComplete = func() {
			ref.relDone = true
			for _, r := range spec {
				ref.received.Add(uint64(r[0]-base), uint64(r[1]-base))
			}
			ref.gotBytes += int(spec.TotalBytes())
			tp.counted += uint64(spec.TotalBytes())
			onComplete()
		}
		rel.OnFail = func(err error) {
			ref.relDone, ref.relFailed = true, true
			for _, br := range rel.Received().Ranges() {
				ref.gotBytes += int(br.Len())
				mapBody(spec, int64(br.Start), int64(br.Len()), func(s, e int64) {
					ref.received.Add(uint64(s-base), uint64(e-base))
				})
			}
			ref.markMissing(spec)
			onFail(err)
		}
	}
	if body := dl.body; body != nil {
		spec := body.Ranges
		onBody, onComplete, onFail := body.OnBody, body.OnComplete, body.OnFail
		body.OnBody = func(off, n int64, data []byte) {
			ref.gotBytes += int(n)
			mapBody(spec, off, n, func(s, e int64) {
				ref.received.Add(uint64(s-base), uint64(e-base))
			})
			tp.counted += uint64(n)
			onBody(off, n, data)
			tp.checkLive(ref)
			if tp.onChunk != nil {
				tp.onChunk(ref)
			}
		}
		body.OnLost = func(off, n int64) {
			mapBody(spec, off, n, func(s, e int64) {
				ref.lost.Add(uint64(s-base), uint64(e-base))
			})
		}
		body.OnComplete = func() {
			ref.bodyDone = true
			onComplete()
		}
		body.OnFail = func(err error) {
			ref.bodyDone, ref.bodyFailed = true, true
			ref.markMissing(spec)
			onFail(err)
		}
	}
	if tp.onDownload != nil {
		tp.onDownload(dl)
	}
}

// checkLive is behaviour (4): the poll's byte count and the two delivery
// counters advance with every arriving chunk, while the record holds no
// coverage of a download still in flight.
func (tp *tap) checkLive(ref *refDownload) {
	if ref.dl.gotBytes != ref.gotBytes {
		tp.t.Errorf("segment %d in flight: gotBytes %d, reference %d", ref.dl.index, ref.dl.gotBytes, ref.gotBytes)
	}
	reg := tp.scope.Registry()
	if got := reg.Counter(obs.CBytesReliable) + reg.Counter(obs.CBytesUnreliable); got != tp.counted {
		tp.t.Errorf("segment %d in flight: delivery counters show %d bytes, responses delivered %d", ref.dl.index, got, tp.counted)
	}
	if !ref.dl.received.IsEmpty() || !ref.dl.lost.IsEmpty() {
		tp.t.Errorf("segment %d in flight: the record already holds coverage", ref.dl.index)
	}
}

// tapRepair mirrors one selective retransmission into a copy of the record's
// coverage, chunk by chunk as the parent did, and compares when it resolves.
func (tp *tap) tapRepair(resp *httpsim.Response) {
	p, t := tp.p, tp.t
	tp.repair = resp
	spec := resp.Ranges
	// The record under repair is the one whose holes are the request.
	var dl *download
	for _, d := range p.downloads[:p.nextIndex] {
		holes := p.holes(d)
		match := len(holes) == len(spec)
		for i := 0; match && i < len(holes); i++ {
			match = spec[i] == [2]int64{d.segStart + int64(holes[i].Start), d.segStart + int64(holes[i].End)}
		}
		if match {
			dl = d
			break
		}
	}
	if dl == nil {
		t.Fatalf("repair %v matches no record's holes", spec)
	}
	var received quic.RangeSet
	for _, r := range dl.received.Ranges() {
		received.Add(r.Start, r.End)
	}
	recovered := int64(0)
	before := p.results.RecoveredBytes
	scored := p.results.Segments[dl.resultIx]
	onBody, onComplete, onFail := resp.OnBody, resp.OnComplete, resp.OnFail
	resp.OnBody = func(off, n int64, data []byte) {
		mapBody(spec, off, n, func(s, e int64) {
			had := received.CoveredBytes()
			received.Add(uint64(s-dl.segStart), uint64(e-dl.segStart))
			recovered += int64(received.CoveredBytes() - had)
		})
		onBody(off, n, data)
		if got := p.results.RecoveredBytes - before; got != recovered {
			t.Errorf("segment %d repair: RecoveredBytes advanced %d, reference %d", dl.index, got, recovered)
		}
		if tp.onRepair != nil {
			tp.onRepair(recovered)
		}
	}
	check := func(row string) {
		tp.rows[row]++
		if !sameSet(&dl.received, &received) {
			t.Errorf("segment %d %s: coverage %v, reference %v", dl.index, row, dl.received.Ranges(), received.Ranges())
		}
		if got := p.results.RecoveredBytes - before; got != recovered {
			t.Errorf("segment %d %s: RecoveredBytes advanced %d, reference %d", dl.index, row, got, recovered)
		}
	}
	resp.OnComplete = func() {
		onComplete()
		check("repair")
		if got := p.results.Segments[dl.resultIx].GotBytes; got != int(received.CoveredBytes()) {
			t.Errorf("segment %d repair: result GotBytes %d, reference %d", dl.index, got, received.CoveredBytes())
		}
	}
	resp.OnFail = func(err error) {
		onFail(err)
		// (3) A failed repair keeps what it recovered but does not re-score.
		if recovered > 0 {
			check("failed repair that had recovered bytes")
			if p.results.Segments[dl.resultIx] != scored {
				t.Errorf("segment %d: a failed repair re-scored the segment", dl.index)
			}
		}
	}
}

// diffRig is one scenario of the differential test.
type diffRig struct {
	trace    *trace.Trace
	queue    int
	segments int
	mode     Mode
	alg      abr.Algorithm
	buffer   int
	profile  string                                       // netem impairment profile on the primary path
	killAt   sim.Time                                     // > 0: blackhole the primary path for good from here
	backup   bool                                         // a second origin on its own clean path
	handler  func(origin httpsim.Handler) httpsim.Handler // wraps what the origin serves
	wantRows []string
}

// run plays the scenario under the tap, with the invariant checker armed
// (player.settle-coverage checks every settled record); setup may script it
// further.
func (d diffRig) run(t *testing.T, setup func(tp *tap, cc *quic.Conn)) *tap {
	t.Helper()
	s := sim.New(99)
	s.SetChecker(invariant.New())
	v := video.MustLoad("BBB")
	v.Segments = d.segments
	m := dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: 10, Analyzer: prep.NewAnalyzer()})
	origin := func(path *netem.Path, idle sim.Time) *quic.Conn {
		cc, sc := quic.NewPair(s, path,
			quic.Config{IdleTimeout: idle}, quic.Config{IdleTimeout: 60 * time.Second})
		if d.handler != nil {
			httpsim.NewServer(sc, d.handler(videoHandler(t, m)), httpsim.ServerOptions{})
		} else if _, err := server.New(sc, m, httpsim.ServerOptions{}); err != nil {
			t.Fatal(err)
		}
		return cc
	}
	path := netem.NewPath(s, d.trace, d.queue)
	down, up, err := netem.NewProfile(d.profile)
	if err != nil {
		t.Fatal(err)
	}
	var dc, uc netem.Chain
	idle := 30 * time.Second
	if d.killAt > 0 {
		kill := netem.Blackout{Windows: []netem.Window{{Start: d.killAt, End: 1 << 62}}}
		dc, uc = append(dc, kill), append(uc, kill)
		idle = 2 * time.Second
	}
	if down != nil {
		dc = append(dc, down)
	}
	if up != nil {
		uc = append(uc, up)
	}
	if len(dc) > 0 {
		path.Down.Impair(dc, 7)
		path.Up.Impair(uc, 8)
	}
	cc := origin(path, idle)

	scope := obs.NewScope(func() time.Duration { return s.Now() }, obs.Options{})
	tp := &tap{Algorithm: d.alg, t: t, s: s, scope: scope, rows: map[string]int{}}
	cfg := Config{Algorithm: tp, Mode: d.mode, BufferSegments: d.buffer, Obs: scope}
	if d.backup {
		cfg.FailoverConns = []*quic.Conn{origin(netem.NewPath(s, d.trace, d.queue), 30*time.Second)}
	}
	tp.p = New(s, cc, v, m, cfg)
	if setup != nil {
		setup(tp, cc)
	}
	tp.p.Run(nil)
	for !tp.stop && s.RunUntilBudget(time.Hour, 1) {
	}
	if !tp.p.Done() && !tp.stop {
		t.Fatalf("playback did not finish: %d/%d segments", len(tp.p.results.Segments), d.segments)
	}
	tp.scan()
	for _, row := range d.wantRows {
		if tp.rows[row] == 0 {
			t.Errorf("scenario never exercised %q (saw %v)", row, tp.rows)
		}
	}
	t.Logf("rows: %v", tp.rows)
	return tp
}

func TestCoverageMatchesPerChunkReference(t *testing.T) {
	voxel := diffRig{trace: trace.Verizon(), queue: 32, segments: 14, mode: ModeVoxel, alg: abr.NewABRStar(), buffer: 3}

	t.Run("bursty path", func(t *testing.T) {
		d := voxel
		d.profile = "bursty"
		d.wantRows = []string{"completed", "cut", "repair"}
		d.run(t, nil)
	})

	t.Run("failover to a second origin", func(t *testing.T) {
		d := voxel
		d.profile = "handover-blackout"
		d.killAt, d.backup = 12*time.Second, true
		d.wantRows = []string{"completed"}
		tp := d.run(t, nil)
		if tp.scope.Registry().Counter(obs.CFailovers) == 0 {
			t.Error("the client never failed over")
		}
	})

	t.Run("origin dies mid-download", func(t *testing.T) {
		// No backup: the requests in flight fail with what they had, and every
		// later one fails empty — the whole plan is lost.
		d := voxel
		d.killAt = 12 * time.Second
		d.wantRows = []string{"completed", "failed"}
		tp := d.run(t, nil)
		salvaged := false
		for _, dl := range tp.p.downloads {
			salvaged = salvaged || (!dl.received.IsEmpty() && !dl.lost.IsEmpty() && tp.p.results.FailedRequests > 0)
		}
		if !salvaged {
			t.Error("no failed download kept partial data")
		}
	})

	t.Run("repair fails half-way", func(t *testing.T) {
		// The connection dies under the second repair that has recovered
		// something and still has more to come; with no backup every later
		// request fails too.
		d := voxel
		d.profile = "bursty"
		d.wantRows = []string{"completed", "repair", "failed repair that had recovered bytes", "failed"}
		d.run(t, func(tp *tap, cc *quic.Conn) {
			var seen *httpsim.Response
			tp.onRepair = func(recovered int64) {
				if recovered >= tp.repair.Ranges.TotalBytes() || cc.Closed() {
					return
				}
				if seen != nil && seen != tp.repair {
					cc.Close(nil)
				}
				seen = tp.repair
			}
		})
	})

	t.Run("cut before the reliable part completed", func(t *testing.T) {
		// At 1.5 Mbit/s the first abandonment poll comes before the I-frame
		// and headers of a high rung have arrived.
		d := voxel
		d.trace, d.segments = trace.Constant("slow", 1.5e6, 3600), 4
		d.wantRows = []string{"cut before the reliable part completed"}
		d.run(t, func(tp *tap, _ *quic.Conn) {
			top := tp.p.opts.Full(video.Quality(len(tp.p.man.Reps) - 1))
			alg := tp.Algorithm
			tp.Algorithm = scripted{Algorithm: alg, first: top}
			tp.abandon = func(pr abr.Progress) (abr.AbandonAction, bool) {
				return abr.AbandonAction{Kind: abr.FinishPartial}, pr.Candidate == top
			}
		})
	})

	t.Run("reliable part answered with an error", func(t *testing.T) {
		// The origin refuses the first request for segment 2 — its reliable
		// part — with a bodiless 404, as it answers a mangled request with a
		// bodiless 405/400 (ROADMAP 4(a)); the player credits the part anyway.
		d := voxel
		d.trace, d.segments = trace.Constant("c", 8e6, 3600), 4
		refuse := false
		d.handler = func(origin httpsim.Handler) httpsim.Handler {
			return httpsim.HandlerFunc(func(path string) (httpsim.Object, error) {
				if refuse && strings.HasPrefix(path, "/video/") {
					refuse = false
					return nil, errors.New("gone")
				}
				return origin.Resolve(path)
			})
		}
		d.wantRows = []string{"completed", "reliable part credited whatever the response carried"}
		d.run(t, func(tp *tap, _ *quic.Conn) {
			tp.onDownload = func(dl *download) { refuse = dl.index == 2 }
		})
	})

	t.Run("restarts", func(t *testing.T) {
		// BOLA over a collapsing link strands a big download and restarts it
		// lower, in the one-request and in the two-phase mode.
		for _, mode := range []Mode{ModeReliable, ModeOpaque} {
			d := diffRig{
				trace: trace.Step("step-down", 20e6, 0.8e6, 24*time.Second, 3600), queue: 32, segments: 10,
				mode: mode, alg: abr.NewBola(), buffer: 2,
				wantRows: []string{"completed", "restarted"},
			}
			d.run(t, nil)
		}
	})

	t.Run("still in flight when the run ends", func(t *testing.T) {
		// (4) A trial that ends mid-download has counted every byte that
		// arrived: checkLive ran on each chunk, and once more here.
		tp := voxel.run(t, func(tp *tap, _ *quic.Conn) {
			tp.onChunk = func(ref *refDownload) {
				tp.stop = tp.stop || ref.dl.index == 3 && ref.gotBytes > 50_000
			}
		})
		if tp.cur == nil || tp.cur.gotBytes == 0 || tp.p.dl != tp.cur.dl || tp.p.Done() {
			t.Fatal("the run did not end with a download in flight")
		}
		tp.checkLive(tp.cur)
	})
}

// videoHandler serves what server.VideoServer serves, as a Handler a
// scenario can wrap.
func videoHandler(t *testing.T, m *dash.Manifest) httpsim.Handler {
	mpd, err := m.MPD()
	if err != nil {
		t.Fatal(err)
	}
	return httpsim.HandlerFunc(func(path string) (httpsim.Object, error) {
		for q, rep := range m.Reps {
			if path == server.VideoPath(q) {
				return httpsim.ZeroObject(rep.Segments[len(rep.Segments)-1].MediaRange[1]), nil
			}
		}
		if path == server.ManifestPath {
			return httpsim.BytesObject(mpd), nil
		}
		return nil, errors.New("not found")
	})
}

// scripted answers the first decision with a fixed candidate.
type scripted struct {
	abr.Algorithm
	first abr.Candidate
}

func (s scripted) Decide(st abr.State, o abr.Options) abr.Decision {
	if st.Index == 0 {
		return abr.Decision{Candidate: s.first}
	}
	return s.Algorithm.Decide(st, o)
}

// TestDownloadMallocBudget: the player's own allocations for one download —
// measured as the difference between starting a two-phase download and
// issuing the same two requests bare — then for a whole steady-state
// segment, each in a world of its own and on a warm kernel: the same rounds
// again after the kernel was released. A download's record and its hooks
// come from the kernel, so on a warm kernel a download costs the player
// nothing, and a segment nothing either (0–2 under the race detector, whose
// sync.Pool drops the scoring scratch now and then); in a world of its own
// a download makes the record and binds five hooks, 5 mallocs, and a
// segment 7 (7–8 under the race detector). The budgets are the race figures
// plus 1; a repair's request costs the player nothing in either. In a world of its own a download measured 6
// while it built its record and five callbacks, 9 while each request also
// built its range spec, 10 while each poll scheduled a closure of its own;
// a segment 8 (a median of 11 rounds) while it also cloned its settled
// coverage, 11 while every download built its two range specs, 23 while
// every segment built its own decision space, utilities, loss vector and
// coverage.
func TestDownloadMallocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sim.DropReleased()
	for world, c := range []struct {
		where             string
		download, segment float64 // budgets
	}{
		{"in a world of its own", 6, 9},
		{"on a warm kernel", 0, 3},
	} {
		r := buildRig(t, trace.Constant("c", 8e6, 3600), 32, 4, Config{Algorithm: abr.NewABRStar(), Mode: ModeVoxel, BufferSegments: 3})
		download, segment, repair := downloadCost(t, r)
		t.Logf("%s: a download %.0f mallocs, a segment %.0f, a repair %.0f", c.where, download, segment, repair)
		if download > c.download {
			t.Errorf("%s a download costs the player %.0f mallocs of its own, budget %.0f", c.where, download, c.download)
		}
		if repair > 0 {
			t.Errorf("%s a repair costs the player %.0f mallocs of its own, want none", c.where, repair)
		}
		if segment > c.segment {
			t.Errorf("%s a steady-state segment costs the player %.0f mallocs of its own (median of 11 rounds), budget %.0f", c.where, segment, c.segment)
		}
		if world == 0 {
			r.s.Release()
		}
	}
}

// downloadCost returns the player's own mallocs for a download, for a whole
// steady-state segment and for a repair's request. The segment is from the completion of one
// download to the next one in flight — completeSegment → settle → score →
// reach → step → Decide → startDownload. Each of 11 rounds delivers segment 0
// at a fixed candidate for real through bare requests, outside the count,
// and hands the player a record of it; the count is completeSegment's, less
// the two requests it issues. The session's own storage — the decision
// space, the ABR* vectors, the loss vector, the coverage scratch, the poll
// timer — is reused, so what is left is the next download's and the settled
// coverage's copy into the record. The median keeps a round the runtime's
// background work lands in from deciding the count.
func downloadCost(t *testing.T, r *rig) (download, segment, repair float64) {
	p := r.pl
	cand := p.opts.Full(9)
	seg := p.man.Segment(cand.Quality, 0)
	nr := len(seg.Reliable)
	rel, body := httpsim.RangeSpec(seg.ObjectRanges[:nr:nr]), httpsim.RangeSpec(seg.ObjectRanges[nr:])
	path := server.VideoPath(int(cand.Quality))
	bare := testing.AllocsPerRun(20, func() {
		p.client.Get(path, rel, false, nil).Cancel()
		p.client.Get(path, body, true, nil).Cancel()
	})
	with := testing.AllocsPerRun(20, func() {
		p.startDownload(cand, nil)
		p.cancel(p.dl)
	})

	p.results.Segments = make([]SegmentResult, 0, 64) // the append amortizes
	var owns []float64
	for round := 0; round < 11; round++ {
		relResp, bodyResp := p.client.Get(path, rel, false, nil), p.client.Get(path, body, true, nil)
		start := r.s.Now()
		for !relResp.Complete() || !bodyResp.Complete() {
			r.s.RunUntil(r.s.Now() + 100*time.Millisecond)
		}
		dl := p.newDownload()
		dl.index, dl.cand, dl.segStart, dl.startedAt, dl.reliable, dl.body = 0, cand, seg.MediaRange[0], start, relResp, bodyResp
		dl.gotBytes = int(relResp.Ranges.TotalBytes() + bodyResp.BytesReceived())
		p.downloads[0], p.dl, p.nextIndex, p.buffer = dl, dl, 0, 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.completeSegment(dl)
		runtime.ReadMemStats(&after)
		if p.dl == nil {
			t.Fatal("the player did not start the next download")
		}
		p.cancel(p.dl)
		p.dl = nil
		owns = append(owns, float64(after.Mallocs-before.Mallocs)-bare)
	}
	slices.Sort(owns)

	// A repair of a record with two holes, less the same request bare: its
	// hooks are bound to the record and its ranges written into the
	// player's scratch.
	holed := p.newDownload()
	holed.cand, holed.segStart = cand, seg.MediaRange[0]
	holed.lost.Add(0, 1000)
	holed.lost.Add(5000, 6000)
	p.downloads[0], p.nextIndex, p.buffer = holed, 1, p.man.SegmentDuration
	spec := httpsim.RangeSpec{{holed.segStart, holed.segStart + 1000}, {holed.segStart + 5000, holed.segStart + 6000}}
	bareRepair := testing.AllocsPerRun(20, func() { p.client.Get(path, spec, true, nil).Cancel() })
	withRepair := testing.AllocsPerRun(20, func() {
		p.maybeSelectiveRetx()
		if p.retx == nil || len(p.retx.Ranges) != 2 {
			t.Fatal("the player did not repair the record's two holes")
		}
		p.retx.Cancel()
		p.retx = nil
	})
	return with - bare, owns[len(owns)/2], withRepair - bareRepair
}

// Package player implements the video client: the DASH playback loop, the
// playback buffer and stall accounting, the two-phase VOXEL fetch (reliable
// I-frame + headers, unreliable frame bodies), segment abandonment, and
// the opportunistic selective retransmission of §4.2.
//
// The player supports five transport/ABR integration modes: four mirroring
// the paper's incremental deployment story (§5), plus the BETA baseline:
//
//	ModeReliable      — everything over reliable streams ("Q" in Figs. 3–4)
//	ModeOpaque        — vanilla ABR over QUIC*: I-frame + headers reliable,
//	                    bodies unreliable, ABR unaware ("Q*" in Figs. 3–4)
//	ModeVoxel         — the full system: ABR*'s partial-segment targets over
//	                    QUIC* with selective retransmission (§5.2)
//	ModeVoxelReliable — ABR* decisions but fully reliable transfers
//	                    ("VOXEL rel", Fig. 18c–d)
//	ModeBeta          — reliable streams, each quality offering BETA's one
//	                    virtual level (the segment minus its unreferenced
//	                    B-frame bodies) beside the full segment
//
// The player only reads what content preparation produced: the decision
// space comes from the manifest, and the video is consulted to score what
// was delivered.
package player

import (
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/obs"
	"voxel/internal/qoe"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/video"
)

// Mode selects the transport/ABR integration.
type Mode int

// The five integration modes (see the package comment).
const (
	ModeReliable Mode = iota
	ModeOpaque
	ModeVoxel
	ModeVoxelReliable
	ModeBeta
)

func (m Mode) String() string {
	switch m {
	case ModeReliable:
		return "Q"
	case ModeOpaque:
		return "Q*"
	case ModeVoxel:
		return "VOXEL"
	case ModeBeta:
		return "BETA"
	default:
		return "VOXEL-rel"
	}
}

// maxVirtualCandidates caps per-quality virtual levels fed to the ABR.
const maxVirtualCandidates = 8

// Config parameterizes a player run.
type Config struct {
	Algorithm abr.Algorithm
	Mode      Mode
	// BufferSegments is the playback buffer capacity in segments (the
	// paper sweeps 1–7).
	BufferSegments int
	// Metric scores delivered segments (default SSIM).
	Metric qoe.Metric
	// DisableSelectiveRetx turns off §4.2's buffer-full loss recovery.
	DisableSelectiveRetx bool
	// Live enables live-edge semantics: segment i only becomes available
	// once it has been produced (i+1 segment durations after the session
	// start), the natural regime for the paper's low-latency motivation.
	Live bool
	// FailoverConns are spare connections to additional origin servers; the
	// client fails over to them when the primary connection closes.
	FailoverConns []*quic.Conn
	// Obs receives playback telemetry (segment/rebuffer/abandonment events,
	// buffer and throughput gauges) and is forwarded to the HTTP client.
	// Nil disables recording at zero cost.
	Obs *obs.Scope
}

// SegmentResult records one delivered segment.
type SegmentResult struct {
	Index      int
	Quality    video.Quality
	Virtual    bool
	TargetByte int
	GotBytes   int
	LostBytes  int
	Score      float64
	Restarts   int
	// WastedBytes counts data discarded by restarts.
	WastedBytes int
}

// Results summarizes a playback session.
type Results struct {
	Segments       []SegmentResult
	StallTime      time.Duration
	StartupDelay   time.Duration
	PlayDuration   time.Duration
	BytesReceived  int64
	BytesWasted    int64
	SkippedBytes   int64 // bytes of chosen-quality segments never delivered
	ChosenBytes    int64 // full-size bytes of chosen qualities
	TargetBytes    int64 // bytes the plans intended to deliver
	LostInTransit  int64 // transport-reported losses (pre-recovery)
	RecoveredBytes int64 // via selective retransmission
	Switches       int
	FailedRequests int // requests abandoned after deadline/retry/failover
}

// BufRatio is total stall time over media duration (§5.1).
func (r *Results) BufRatio() float64 {
	if r.PlayDuration == 0 {
		return 0
	}
	return r.StallTime.Seconds() / r.PlayDuration.Seconds()
}

// AvgBitrate is the mean delivered segment bitrate in bps.
func (r *Results) AvgBitrate() float64 {
	if len(r.Segments) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Segments {
		sum += float64(s.GotBytes*8) / video.SegmentDuration.Seconds()
	}
	return sum / float64(len(r.Segments))
}

// Scores returns the per-segment QoE scores.
func (r *Results) Scores() []float64 {
	out := make([]float64, len(r.Segments))
	for i, s := range r.Segments {
		out[i] = s.Score
	}
	return out
}

// MeanScore returns the average segment score.
func (r *Results) MeanScore() float64 {
	if len(r.Segments) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Segments {
		sum += s.Score
	}
	return sum / float64(len(r.Segments))
}

// SkippedFraction is the share of chosen-quality data not delivered
// (Fig. 7d).
func (r *Results) SkippedFraction() float64 {
	if r.ChosenBytes == 0 {
		return 0
	}
	return float64(r.SkippedBytes) / float64(r.ChosenBytes)
}

// ResidualLossFraction is the share of planned data lost in transit and
// still unrepaired after selective retransmission (§4.2's 0.9–1.8%
// figures). Bytes a virtual quality level intentionally skipped — or that
// an abandonment cut away — are not losses: their effect is already priced
// into the segment score, and the decoder sees clean truncation, not
// corruption.
func (r *Results) ResidualLossFraction() float64 {
	if r.TargetBytes == 0 {
		return 0
	}
	missing := r.LostInTransit - r.RecoveredBytes
	if missing < 0 {
		missing = 0
	}
	return float64(missing) / float64(r.TargetBytes)
}

// Player drives one playback session.
type Player struct {
	sim    *sim.Sim
	client *httpsim.Client
	cfg    Config
	video  *video.Video
	man    *dash.Manifest

	// playback state
	started      bool
	buffer       time.Duration
	lastSync     sim.Time
	stall        time.Duration
	stalled      bool
	stallAtStart time.Duration // p.stall when the current rebuffer began
	nextIndex    int
	opts         abr.Options // decision space of segment nextIndex (see reach)
	builds       int         // decision spaces built: one per segment reached
	lastQuality  video.Quality
	tputEstimate float64
	results      Results
	done         bool
	onDone       func()

	// downloads holds each segment's record, kept after completion for
	// scoring and selective retransmission; dl is the one in flight. The
	// records are the kernel's (store), taken back when the world ends.
	downloads []*download
	dl        *download
	store     *sim.Pool[download, *download]

	retx     *httpsim.Response // the selective retransmission in flight, nil when none
	retxSpec httpsim.RangeSpec // its ranges: one repair is in flight at a time

	poll   *sim.Timer // dl's abandonment poll
	stepFn func()     // p.step, bound once: an idle tick schedules no closure

	// Storage the session owns and every segment reuses, so that a segment
	// pays only for its requests: the arrays opts lives in, the per-frame
	// loss vector of scoring, coverage while a download settles, and the
	// result buffer of gaps and holes.
	flat       []abr.Candidate
	perQuality [][]abr.Candidate
	loss       []float64
	settling   coverage
	gapScratch []quic.ByteRange

	obs *obs.Scope // nil = telemetry disabled (all calls no-op)
}

// download is the one record of a segment's delivery, from the decision that
// started it to the last repair of what it left missing. Delivery state has
// one owner at a time: while a request is in flight that is its
// httpsim.Response, and the player keeps no copy — the per-chunk hook only
// counts bytes. The record takes coverage over, projected into segment
// offsets (RangeSpec.Project), when the download completes or is cut (settle)
// and when a repair resolves; scoring and repair planning read it from here.
//
// Records come from the kernel's store (DESIGN.md §5): a world takes one per
// download and gives none back — a segment's record is read until the
// session ends — and the next world gets them again, with the capacity of
// their coverage sets and the callbacks of their requests, which are bound
// to the record the first time the store hands it out.
type download struct {
	p         *Player
	index     int
	cand      abr.Candidate
	segStart  int64 // the segment's offset in its representation's object
	startedAt sim.Time
	restarts  int
	wasted    int

	// The requests, while in flight (nil afterwards), and the telemetry of
	// the stream kind that carries the body.
	reliable  *httpsim.Response // two-phase modes: I-frame + headers (§4.2)
	body      *httpsim.Response
	bodyBytes obs.Counter
	bodyDone  obs.Kind
	full      [1][2]int64 // a full segment's one range, the spec of its request
	gotBytes  int         // body bytes so far, plus the reliable part once it resolved

	coverage // valid once settled
	resultIx int

	hooks hooks
}

// hooks are a download record's request callbacks, bound to it once: those
// of its own requests when the store first hands the record out, those of a
// repair when it is first repaired.
type hooks struct {
	bodyChunk, repairChunk        func(bodyOff, n int64, data []byte)
	bodyComplete, relComplete     func()
	repairComplete                func()
	bodyFail, relFail, repairFail func(error)
}

var downloads sim.Local[sim.Pool[download, *download]]

// Scrub returns the record to its zero state for the kernel's next world,
// keeping the capacity of its coverage sets and its hooks.
func (dl *download) Scrub() {
	dl.received.Reset()
	dl.lost.Reset()
	*dl = download{coverage: dl.coverage, hooks: dl.hooks}
}

// newDownload takes a record from the kernel's store, binding its hooks the
// first time.
func (p *Player) newDownload() *download {
	dl := p.store.Get()
	if dl.hooks.bodyChunk == nil {
		h := &dl.hooks
		h.bodyChunk, h.bodyComplete, h.bodyFail = dl.onBodyChunk, dl.onBodyComplete, dl.onBodyFail
		h.relComplete, h.relFail = dl.onRelComplete, dl.onRelFail
	}
	dl.p = p
	return dl
}

// coverage is a segment's delivery state in segment offsets: the bytes that
// arrived and the bytes the transport reported lost.
type coverage struct {
	received, lost quic.RangeSet
}

// absorb adds what r delivered and what the transport reported lost; base is
// the segment's offset in r's object.
func (c *coverage) absorb(r *httpsim.Response, base int64) {
	r.Ranges.Project(&c.received, r.Received(), base)
	r.Ranges.Project(&c.lost, r.Lost(), base)
}

// New creates a player for the given title over an established QUIC*
// connection that already has a server.VideoServer on the other side.
func New(s *sim.Sim, conn *quic.Conn, v *video.Video, m *dash.Manifest, cfg Config) *Player {
	if cfg.Algorithm == nil {
		panic("player: nil algorithm")
	}
	if cfg.BufferSegments <= 0 {
		cfg.BufferSegments = 7
	}
	p := &Player{
		sim:    s,
		client: httpsim.NewClient(conn),
		cfg:    cfg,
		video:  v,
		man:    m,
		obs:    cfg.Obs,
	}
	p.client.SetObs(cfg.Obs)
	for _, fc := range cfg.FailoverConns {
		p.client.AddFailover(fc)
	}
	p.downloads = make([]*download, m.NumSegments())
	p.store = downloads.Get(s)
	p.poll = sim.NewTimer(s, p.pollDownload)
	p.stepFn = p.step
	// The decision space at its worst case, so that it never moves: each
	// quality's candidates are a capped window of flat.
	reps := len(m.Reps)
	p.flat = make([]abr.Candidate, 0, reps*(maxVirtualCandidates+1))
	p.perQuality = make([][]abr.Candidate, 0, reps)
	p.reach(0)
	return p
}

// Run starts the session; onDone fires when playback finished.
func (p *Player) Run(onDone func()) {
	p.onDone = onDone
	start := p.sim.Now()
	resp := p.client.Get(server.ManifestPath, nil, false, nil)
	resp.OnComplete = func() {
		// Seed the throughput estimate from the manifest transfer.
		el := p.sim.Now() - start
		if el > 0 && resp.BodyLen > 0 {
			p.tputEstimate = float64(resp.BodyLen*8) / el.Seconds()
		} else {
			p.tputEstimate = 1e6
		}
		p.lastSync = p.sim.Now()
		p.step()
	}
	resp.OnFail = func(error) {
		// The manifest object is only a throughput probe here (the parsed
		// manifest was handed to New); start playback on a default estimate
		// rather than wedging the session.
		p.results.FailedRequests++
		p.tputEstimate = 1e6
		p.lastSync = p.sim.Now()
		p.step()
	}
}

// Results returns the session results (valid once done).
func (p *Player) Results() *Results { return &p.results }

// Done reports whether playback completed.
func (p *Player) Done() bool { return p.done }

// --- playback clock ---

// syncBuffer advances the playback clock to now, draining buffer and
// accumulating stall time.
func (p *Player) syncBuffer() {
	now := p.sim.Now()
	elapsed := now - p.lastSync
	p.lastSync = now
	if chk := p.sim.Checker(); chk.Enabled() {
		// The playback buffer is physical media: it can drain to zero but
		// never below, and accumulated stall can only grow.
		if p.buffer < 0 || p.stall < 0 || elapsed < 0 {
			chk.Failf(invariant.PlayerBufferNonnegative,
				"buffer %v, stall %v, elapsed %v at %v", p.buffer, p.stall, elapsed, now)
		}
	}
	if !p.started || elapsed <= 0 {
		return
	}
	if p.buffer >= elapsed {
		p.buffer -= elapsed
		if p.stalled {
			rebuf := p.stall - p.stallAtStart
			p.obs.Observe(obs.HStallMs, int64(rebuf/time.Millisecond))
			p.obs.EventX(obs.EvRebufferStop, int64(p.nextIndex), 0, 0, rebuf.Seconds())
		}
		p.stalled = false
		return
	}
	// Drained mid-interval: the rest is stall (unless media ended).
	stall := elapsed - p.buffer
	p.buffer = 0
	if p.nextIndex < p.man.NumSegments() || p.dl != nil {
		if !p.stalled {
			p.stallAtStart = p.stall
			p.obs.Inc(obs.CRebuffers)
			p.obs.Event(obs.EvRebufferStart, int64(p.nextIndex), 0, 0)
		}
		p.stall += stall
		p.stalled = true
	}
}

func (p *Player) bufferCap() time.Duration {
	return time.Duration(p.cfg.BufferSegments) * p.man.SegmentDuration
}

// --- the ABR loop ---

func (p *Player) step() {
	if p.done {
		return
	}
	p.syncBuffer()
	if p.nextIndex >= p.man.NumSegments() {
		p.finishWhenDrained()
		return
	}
	// Live edge: wait until the next segment has been produced.
	if p.cfg.Live {
		avail := time.Duration(p.nextIndex+1) * p.man.SegmentDuration
		if now := p.sim.Now(); now < avail {
			p.idle(avail - now)
			return
		}
	}
	// A full buffer comes back as Sleep: idle, then ask again.
	d := p.cfg.Algorithm.Decide(p.state(), p.opts)
	p.obs.Inc(obs.CAbrDecisions)
	if d.Sleep > 0 {
		// Counter only: an event per re-ask would flood the timeline ring.
		p.obs.Inc(obs.CAbrSleeps)
		p.idle(d.Sleep)
		return
	}
	p.startDownload(d.Candidate, nil)
}

func (p *Player) state() abr.State {
	return abr.State{
		Buffer:      p.buffer,
		BufferCap:   p.bufferCap(),
		Throughput:  p.tputEstimate,
		LastQuality: p.lastQuality,
		Index:       p.nextIndex,
		Total:       p.man.NumSegments(),
		Startup:     !p.started,
	}
}

// idle sleeps; in VOXEL mode idle periods run selective retransmission.
func (p *Player) idle(d time.Duration) {
	if p.cfg.Mode == ModeVoxel && !p.cfg.DisableSelectiveRetx {
		p.maybeSelectiveRetx()
	}
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	p.sim.Schedule(d, p.stepFn)
}

// finishWhenDrained ends the session after the buffer plays out.
func (p *Player) finishWhenDrained() {
	if p.buffer > 0 {
		p.sim.Schedule(p.buffer, func() {
			p.syncBuffer()
			p.finishWhenDrained()
		})
		return
	}
	if p.done {
		return
	}
	p.done = true
	p.results.PlayDuration = p.man.Duration()
	p.results.StallTime = p.stall
	if p.onDone != nil {
		p.onDone()
	}
}

// --- candidate construction ---

// reach makes idx the segment the player decides on next and builds that
// segment's decision space — once: step, its buffer-full re-asks and every
// abandonment poll read p.opts until the next reach rebuilds it in place.
func (p *Player) reach(idx int) {
	p.nextIndex = idx
	p.opts = abr.Options{}
	if idx < p.man.NumSegments() {
		p.opts = p.buildOptions(idx)
	}
}

// buildOptions writes segment idx's decision space into the session's arrays
// (see New), overwriting the previous segment's.
func (p *Player) buildOptions(idx int) abr.Options {
	p.builds++
	flat, perQuality := p.flat[:0], p.perQuality[:0]
	for q := range p.man.Reps {
		seg := p.man.Segment(video.Quality(q), idx)
		full := abr.Candidate{
			Quality:   video.Quality(q),
			Bytes:     seg.Bytes,
			FullBytes: seg.Bytes,
			Frames:    video.FramesPerSeg,
		}
		if len(seg.Points) > 0 {
			full.Score = seg.Points[len(seg.Points)-1].Score
		}
		first := len(flat)
		switch {
		case p.cfg.Mode == ModeBeta:
			// BETA: one virtual level per quality (unreferenced-B drop). A
			// manifest without the level (Bytes 0) offers full segments only.
			if lvl := seg.Beta; lvl.Bytes > 0 && lvl.Bytes < seg.Bytes {
				flat = append(flat, abr.Candidate{
					Quality: video.Quality(q), Bytes: lvl.Bytes, FullBytes: seg.Bytes,
					Score: lvl.Score, Frames: lvl.Frames, Virtual: true,
				})
			}
		case p.usesVirtualLevels() && len(seg.Points) > 1:
			// VOXEL: manifest points above the lower-rung bound.
			bound := 0.0
			if q > 0 {
				lower := p.man.Segment(video.Quality(q-1), idx)
				if len(lower.Points) > 0 {
					bound = lower.Points[len(lower.Points)-1].Score
				}
			}
			pts := seg.Points[:len(seg.Points)-1] // exclude the full point
			for _, pt := range pts {
				if pt.Score < bound {
					continue
				}
				if len(flat)-first >= maxVirtualCandidates {
					break
				}
				flat = append(flat, abr.Candidate{
					Quality: video.Quality(q), Bytes: pt.Bytes, FullBytes: seg.Bytes,
					Score: pt.Score, Frames: pt.Frames, Virtual: true,
				})
			}
		}
		flat = append(flat, full)
		perQuality = append(perQuality, flat[first:len(flat):len(flat)])
	}
	return abr.Options{PerQuality: perQuality, Flat: flat}
}

func (p *Player) usesVirtualLevels() bool {
	return p.cfg.Mode == ModeVoxel || p.cfg.Mode == ModeVoxelReliable
}

// --- download execution ---

// startDownload begins fetching cand for the segment the player is at. prev
// is the download an abandonment restart discards for it, nil otherwise.
func (p *Player) startDownload(cand abr.Candidate, prev *download) {
	idx := p.nextIndex
	seg := p.man.Segment(cand.Quality, idx)
	dl := p.newDownload()
	dl.index, dl.cand, dl.segStart, dl.startedAt = idx, cand, seg.MediaRange[0], p.sim.Now()
	if prev != nil {
		dl.restarts = prev.restarts + 1
		dl.wasted = prev.wasted + prev.gotBytes
	}
	p.downloads[idx] = dl
	p.obs.EventX(obs.EvSegmentChosen, int64(idx), int64(cand.Quality), int64(cand.Bytes), cand.Score)
	if cand.Virtual {
		p.obs.Inc(obs.CVirtualSegments)
		p.obs.Event(obs.EvVirtualLevel, int64(idx), int64(cand.Quality), int64(cand.Bytes))
	}
	p.dl = dl
	p.issueRequests(dl, seg)
	p.schedulePoll()
}

// issueRequests issues the mode-appropriate HTTP requests for the candidate
// of dl. Range requests name full-capacity subslices of the manifest's
// object ranges — the reliable part [:nr], the body ranges after it — or a
// full segment's one range in the record, which the responses only read.
func (p *Player) issueRequests(dl *download, seg *dash.SegmentInfo) {
	path := server.VideoPath(int(dl.cand.Quality))
	obj, nr := seg.ObjectRanges, len(seg.Reliable)

	switch p.cfg.Mode {
	case ModeReliable, ModeVoxelReliable, ModeBeta:
		// One reliable transfer: the whole segment, or for a virtual
		// candidate the ranges covering its byte target in download order —
		// BETA's level as prepared, VOXEL's reliable part plus the first
		// Frames-1 body ranges.
		var spec httpsim.RangeSpec
		switch {
		case !dl.cand.Virtual:
			dl.full[0] = [2]int64{dl.segStart, dl.segStart + int64(dl.cand.Bytes)}
			spec = dl.full[:]
		case p.cfg.Mode == ModeBeta:
			lvl := seg.BetaObjectRanges
			spec = lvl[:len(lvl):len(lvl)]
		default:
			n := nr + min(dl.cand.Frames-1, len(seg.Unreliable))
			spec = obj[:n:n]
		}
		dl.body = p.client.Get(path, spec, false, nil)
		dl.wireBody(obs.CBytesReliable, obs.EvBytesReliable)
	case ModeOpaque, ModeVoxel:
		// Two-phase fetch (§4.2): reliable I-frame + headers, then the
		// frame bodies over an unreliable stream.
		rel := p.client.Get(path, obj[:nr:nr], false, nil)
		dl.reliable = rel
		rel.OnComplete, rel.OnFail = dl.hooks.relComplete, dl.hooks.relFail

		n := len(seg.Unreliable)
		if p.cfg.Mode == ModeVoxel && dl.cand.Virtual {
			// First Frames-1 body ranges per the candidate's point.
			n = min(dl.cand.Frames-1, n)
		}
		if n == 0 {
			return
		}
		dl.body = p.client.Get(path, obj[nr:nr+n:nr+n], true, nil)
		dl.wireBody(obs.CBytesUnreliable, obs.EvBytesUnreliable)
	}
}

// wireBody attaches dl's hooks to its body response; bytes and done name the
// telemetry of the stream kind that carries it.
func (dl *download) wireBody(bytes obs.Counter, done obs.Kind) {
	dl.bodyBytes, dl.bodyDone = bytes, done
	dl.body.OnBody, dl.body.OnComplete, dl.body.OnFail = dl.hooks.bodyChunk, dl.hooks.bodyComplete, dl.hooks.bodyFail
}

// onBodyChunk is the download's only per-chunk work: progress for the
// abandonment poll and the byte counter, both live for a download still in
// flight when a trial ends. Coverage stays with the response until settle.
func (dl *download) onBodyChunk(_, n int64, _ []byte) {
	dl.gotBytes += int(n)
	dl.p.obs.Count(dl.bodyBytes, uint64(n))
}

func (dl *download) onBodyComplete() {
	p := dl.p
	p.obs.Event(dl.bodyDone, int64(dl.index), dl.body.BytesReceived(), 0)
	p.maybeFinishDownload(dl)
}

func (dl *download) onBodyFail(error) {
	dl.p.results.FailedRequests++
	dl.p.maybeFinishDownload(dl)
}

func (dl *download) onRelComplete() {
	p := dl.p
	n := dl.reliable.Ranges.TotalBytes()
	dl.gotBytes += int(n)
	p.obs.Count(obs.CBytesReliable, uint64(n))
	p.obs.Event(obs.EvBytesReliable, int64(dl.index), n, 0)
	p.maybeFinishDownload(dl)
}

func (dl *download) onRelFail(error) {
	dl.p.results.FailedRequests++
	dl.gotBytes += int(dl.reliable.BytesReceived())
	dl.p.maybeFinishDownload(dl)
}

// resolved reports whether nothing more will arrive for r: it was never
// issued, it completed, or it failed for good.
func resolved(r *httpsim.Response) bool {
	return r == nil || r.Complete() || r.Failed()
}

func (p *Player) maybeFinishDownload(dl *download) {
	if resolved(dl.reliable) && resolved(dl.body) {
		p.completeSegment(dl)
	}
}

// settle takes dl's delivery state over from its responses, as segment
// offsets. It runs once, when the download completes or is cut, and before
// the responses are cancelled (a cancelled response reads as failed). The
// coverage is built in the player's storage and the record keeps a copy of
// its final size.
func (p *Player) settle(dl *download) {
	c, base := &p.settling, dl.segStart
	c.received.Reset()
	c.lost.Reset()
	if rel := dl.reliable; rel != nil {
		switch {
		case rel.Complete():
			// Credited in full whatever the response carried — also for the
			// bodiless 405/400 of ROADMAP item 4(a); the goldens pin that.
			for _, r := range rel.Ranges {
				c.received.Add(uint64(r[0]-base), uint64(r[1]-base))
			}
		case rel.Failed():
			p.salvage(c, rel, base)
		}
		// Still in flight at a cut: it contributes nothing.
	}
	if body := dl.body; body != nil {
		if body.Failed() {
			p.salvage(c, body, base)
		} else {
			c.absorb(body, base)
		}
	}
	dl.received.CopyFrom(&c.received)
	dl.lost.CopyFrom(&c.lost)
	p.checkSettled(dl)
}

// salvage keeps what a failed request delivered (§4.3: the partial segment
// is kept) and marks the planned bytes that never arrived as lost, so that
// scoring and selective retransmission see them.
func (p *Player) salvage(c *coverage, r *httpsim.Response, base int64) {
	c.absorb(r, base)
	for _, rr := range r.Ranges {
		for _, g := range p.gaps(&c.received, uint64(rr[0]-base), uint64(rr[1]-base)) {
			c.lost.Add(g.Start, g.End)
		}
	}
}

// checkSettled is the player.settle-coverage invariant, checked only when a
// checker is armed: what settle recorded lies within the download's plan —
// the ranges its requests asked for — and it is the whole plan when every
// request failed for good (its missing bytes are marked lost) or completed
// with a 2xx answer. Not otherwise: a download cut with a request in flight
// keeps only part of its plan, and a bodiless error answer to a body request
// (the split-request 405/400 of ROADMAP item 4(a)) records none of it,
// received or lost.
func (p *Player) checkSettled(dl *download) {
	chk := p.sim.Checker()
	if !chk.Enabled() {
		return
	}
	var plan quic.RangeSet
	whole := true
	for _, r := range [...]*httpsim.Response{dl.reliable, dl.body} {
		if r == nil {
			continue
		}
		whole = whole && (r.Failed() || r.Complete() && r.Status/100 == 2)
		for _, rr := range r.Ranges {
			plan.Add(uint64(rr[0]-dl.segStart), uint64(rr[1]-dl.segStart))
		}
	}
	for _, set := range [...]*quic.RangeSet{&dl.received, &dl.lost} {
		for _, r := range set.Ranges() {
			if !plan.Contains(r.Start, r.End) {
				chk.Failf(invariant.PlayerSettleCoverage,
					"segment %d: recorded %v outside the plan %v", dl.index, r, plan.Ranges())
			}
		}
	}
	if !whole {
		return
	}
	for _, r := range plan.Ranges() {
		if !quic.CoveredBy(&dl.received, &dl.lost, r.Start, r.End) {
			chk.Failf(invariant.PlayerSettleCoverage,
				"segment %d: every request resolved, but received ∪ lost misses part of planned %v", dl.index, r)
		}
	}
}

// schedulePoll arms the periodic abandonment check of the download in flight.
func (p *Player) schedulePoll() { p.poll.Arm(250 * time.Millisecond) }

// pollDownload is the abandonment check: p.poll's callback.
func (p *Player) pollDownload() {
	dl := p.dl
	p.syncBuffer()
	elapsed := p.sim.Now() - dl.startedAt
	tput := 0.0
	if elapsed > 0 {
		tput = float64(dl.gotBytes*8) / elapsed.Seconds()
	}
	action := p.cfg.Algorithm.Abandon(p.state(), p.opts, abr.Progress{
		Candidate:  dl.cand,
		BytesDone:  dl.gotBytes,
		Elapsed:    elapsed,
		Throughput: tput,
	})
	switch action.Kind {
	case abr.Restart:
		p.restartDownload(dl, action.NewCandidate)
	case abr.FinishPartial:
		p.finishPartial(dl)
	default:
		p.schedulePoll()
	}
}

// restartDownload discards the current transfer and refetches the segment
// with the new candidate (BOLA/BETA behaviour — the waste VOXEL avoids).
func (p *Player) restartDownload(dl *download, cand abr.Candidate) {
	p.cancel(dl)
	p.results.BytesWasted += int64(dl.gotBytes)
	p.obs.Inc(obs.CAbandonRestarts)
	p.obs.Event(obs.EvAbandonRestart, int64(dl.index), int64(dl.gotBytes), int64(cand.Bytes))
	p.startDownload(cand, dl)
}

// finishPartial stops fetching and accepts what arrived (ABR*, §4.3). Planned
// bytes not yet arrived are absent, not lost — no repair asks for them — and
// a reliable part still in flight counts for nothing (settle).
func (p *Player) finishPartial(dl *download) {
	p.obs.Inc(obs.CAbandonPartials)
	p.obs.Event(obs.EvAbandonPartial, int64(dl.index), int64(dl.gotBytes), int64(dl.cand.Bytes))
	p.completeSegment(dl)
}

// cancel detaches dl from its poll and from its responses, and lets them go.
func (p *Player) cancel(dl *download) {
	if dl.reliable != nil {
		dl.reliable.Cancel()
	}
	if dl.body != nil {
		dl.body.Cancel()
	}
	dl.reliable, dl.body = nil, nil
	p.poll.Stop()
}

// completeSegment finalizes the current download and advances the loop.
func (p *Player) completeSegment(dl *download) {
	p.settle(dl)
	p.cancel(dl)
	p.syncBuffer()

	elapsed := p.sim.Now() - dl.startedAt
	if elapsed > 0 && dl.gotBytes > 0 {
		sample := float64(dl.gotBytes*8) / elapsed.Seconds()
		// EWMA throughput estimate.
		if p.tputEstimate == 0 {
			p.tputEstimate = sample
		} else {
			p.tputEstimate = 0.7*p.tputEstimate + 0.3*sample
		}
		p.cfg.Algorithm.OnSample(abr.Sample{Throughput: sample, Duration: elapsed})
		p.obs.Observe(obs.HTputKbps, int64(sample/1000))
	}
	p.obs.Observe(obs.HSegmentMs, int64(elapsed/time.Millisecond))

	quality := dl.cand.Quality
	score := p.scoreSegment(dl)
	full := p.man.Segment(quality, dl.index).Bytes
	got := int(dl.received.CoveredBytes())
	lost := int(dl.lost.CoveredBytes())
	dl.resultIx = len(p.results.Segments)
	p.results.Segments = append(p.results.Segments, SegmentResult{
		Index:       dl.index,
		Quality:     quality,
		Virtual:     dl.cand.Virtual,
		TargetByte:  dl.cand.Bytes,
		GotBytes:    got,
		LostBytes:   lost,
		Score:       score,
		Restarts:    dl.restarts,
		WastedBytes: dl.wasted,
	})
	p.results.BytesReceived += int64(got)
	p.results.ChosenBytes += int64(full)
	if miss := full - got; miss > 0 {
		p.results.SkippedBytes += int64(miss)
	}
	p.results.TargetBytes += int64(dl.cand.Bytes)
	p.results.LostInTransit += int64(lost)
	if dl.resultIx > 0 && p.results.Segments[dl.resultIx-1].Quality != quality {
		p.results.Switches++
	}

	p.obs.Inc(obs.CSegments)
	p.obs.EventX(obs.EvSegmentDone, int64(dl.index), int64(got), int64(lost), score)

	p.buffer += p.man.SegmentDuration
	if !p.started {
		p.started = true
		p.results.StartupDelay = p.sim.Now()
		p.lastSync = p.sim.Now()
		p.obs.EventX(obs.EvStartup, int64(dl.index), 0, 0, p.results.StartupDelay.Seconds())
	}
	p.obs.SetGauge(obs.GBufferMs, int64(p.buffer/time.Millisecond))
	p.obs.SetGauge(obs.GThroughputKbps, int64(p.tputEstimate/1000))
	p.lastQuality = quality
	p.reach(p.nextIndex + 1)
	p.dl = nil
	p.step()
}

// scoreSegment computes the QoE of a segment's delivery state by mapping
// received object ranges to per-frame body loss fractions.
func (p *Player) scoreSegment(dl *download) float64 {
	s := p.video.Segment(dl.index, dl.cand.Quality)
	loss := p.loss[:0]
	for i := range s.Frames {
		l := 0.0
		if bs, be := s.BodyRange(i); be != bs {
			have := uint64(be-bs) - p.gapBytes(&dl.received, uint64(bs), uint64(be))
			l = 1 - float64(have)/float64(be-bs)
		}
		loss = append(loss, l)
	}
	p.loss = loss
	return qoe.DefaultModel.Score(p.cfg.Metric, s, loss)
}

func (p *Player) gapBytes(rs *quic.RangeSet, start, end uint64) uint64 {
	var n uint64
	for _, g := range p.gaps(rs, start, end) {
		n += g.Len()
	}
	return n
}

// gaps returns the ranges of [start, end) that rs does not cover, in the
// player's scratch: the result is valid until the next call of gaps or holes.
func (p *Player) gaps(rs *quic.RangeSet, start, end uint64) []quic.ByteRange {
	p.gapScratch = rs.AppendGaps(p.gapScratch[:0], start, end)
	return p.gapScratch
}

// --- selective retransmission (§4.2) ---

// maybeSelectiveRetx re-requests lost ranges of unplayed segments while
// the buffer is full.
func (p *Player) maybeSelectiveRetx() {
	if p.retx != nil {
		return
	}
	// Find the earliest unplayed segment with holes.
	playedUpTo := p.nextIndex - int(p.buffer/p.man.SegmentDuration)
	for idx := max(playedUpTo, 0); idx < p.nextIndex; idx++ {
		dl := p.downloads[idx]
		holes := p.holes(dl)
		if len(holes) == 0 {
			continue
		}
		spec := p.retxSpec[:0]
		for _, h := range holes {
			spec = append(spec, [2]int64{dl.segStart + int64(h.Start), dl.segStart + int64(h.End)})
		}
		p.retxSpec = spec
		resp := p.client.Get(server.VideoPath(int(dl.cand.Quality)), spec, true, nil)
		p.retx = resp
		h := &dl.hooks
		if h.repairChunk == nil {
			h.repairChunk, h.repairComplete, h.repairFail = dl.onRepairChunk, dl.onRepairComplete, dl.onRepairFail
		}
		resp.OnBody, resp.OnComplete, resp.OnFail = h.repairChunk, h.repairComplete, h.repairFail
		return
	}
}

// onRepairChunk counts recovered data: holes are disjoint and missing from
// the record, so every chunk is. Counted live, as a repair can outlast the
// session.
func (dl *download) onRepairChunk(_, n int64, _ []byte) {
	dl.p.results.RecoveredBytes += n
	dl.p.obs.Count(obs.CRecoveredBytes, uint64(n))
}

func (dl *download) onRepairComplete() {
	p := dl.p
	dl.absorb(p.retx, dl.segStart)
	p.retx = nil
	// Re-score with the recovered data.
	res := &p.results.Segments[dl.resultIx]
	res.Score = p.scoreSegment(dl)
	res.GotBytes = int(dl.received.CoveredBytes())
}

// onRepairFail keeps what the repair recovered and moves on: the repair is
// best-effort.
func (dl *download) onRepairFail(error) {
	p := dl.p
	p.results.FailedRequests++
	dl.absorb(p.retx, dl.segStart)
	p.retx = nil
}

// holes returns the ranges of dl the transport reported lost and no later
// delivery filled — missing bytes of what the plan wanted delivered — in the
// scratch gaps uses: the result is valid until the next call of either.
func (p *Player) holes(dl *download) []quic.ByteRange {
	holes := p.gapScratch[:0]
	for _, l := range dl.lost.Ranges() {
		holes = dl.received.AppendGaps(holes, l.Start, l.End)
	}
	p.gapScratch = holes
	return holes
}

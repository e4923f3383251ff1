package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"voxel/internal/abr"
	"voxel/internal/dash"
	"voxel/internal/exp"
	"voxel/internal/httpsim"
	"voxel/internal/netem"
	"voxel/internal/player"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/quic"
	"voxel/internal/server"
	"voxel/internal/sim"
	"voxel/internal/stats"
	"voxel/internal/sweep"
	"voxel/internal/trace"
	"voxel/internal/video"
)

// The layer drivers: one small fixed-size loop per layer boundary, each
// timing only calls into that layer's public functions (the layers below
// it run too — a request still crosses quic and netem — which is why a
// driver is read against the layer's roll-up share, never alone). Single
// goroutine, fixed iteration counts, run once per traced run.

// timed runs fn and returns its wall nanoseconds and mallocs.
func timed(fn func()) (ns, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	ns = float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs)
}

// xorshift is a tiny deterministic generator for driver inputs.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// driveSim measures schedule→fire with a standing pool of 1024 events.
func driveSim(n int) (nsPerEvent float64) {
	s := sim.New(1)
	rng := xorshift(0x9E3779B97F4A7C15)
	remaining := n
	var self func()
	self = func() {
		if remaining > 0 {
			remaining--
			s.Schedule(sim.Time(50_000+rng.next()%5_000_000), self)
		}
	}
	ns, _ := timed(func() {
		for i := 0; i < 1024 && remaining > 0; i++ {
			self()
		}
		s.Run()
	})
	return ns / float64(n)
}

// driveNetem measures Link.Send→deliver of 1200-byte datagrams with 16 in
// flight, optionally through an impairment profile's downlink chain.
func driveNetem(n int, profile string) (nsPer, allocsPer float64, err error) {
	s := sim.New(1)
	l := netem.NewFixedLink(s, 1e9, time.Millisecond, 64)
	if profile != "" {
		down, _, err := netem.NewProfile(profile)
		if err != nil {
			return 0, 0, err
		}
		l.Impair(down, 1)
	}
	sent, done := 0, 0
	var d netem.Datagram
	send := func() {
		if sent < n {
			sent++
			l.Send(d)
		}
	}
	d = netem.Datagram{Size: 1200, Deliver: func() {}, Done: func() { done++; send() }}
	ns, allocs := timed(func() {
		for i := 0; i < 16; i++ {
			send()
		}
		s.Run()
	})
	if done != n {
		return 0, 0, fmt.Errorf("netem driver: %d of %d datagrams finished", done, n)
	}
	return ns / float64(n), allocs / float64(n), nil
}

// drivePath is the fixed 100 Mbit/s topology the transport drivers share.
func drivePath(s *sim.Sim) *netem.Path { return netem.NewFixedPath(s, 100e6, 1200) }

// driveQuicBulk moves mb MiB over one reliable server→client stream.
func driveQuicBulk(mb int) (nsPerMB, allocsPerMB float64, err error) {
	s := sim.New(1)
	client, srv := quic.NewPair(s, drivePath(s), quic.Config{}, quic.Config{})
	done := false
	client.OnStream(func(st *quic.Stream) { st.OnFin(func(uint64) { done = true }) })
	body := make([]byte, mb<<20)
	ns, allocs := timed(func() {
		st := srv.OpenStream(false)
		st.Write(body)
		st.CloseWrite()
		s.RunUntil(10 * time.Minute)
	})
	if !done {
		return 0, 0, fmt.Errorf("quic bulk driver: transfer incomplete")
	}
	return ns / float64(mb), allocs / float64(mb), nil
}

// driveQuicLossy moves mb MiB over an unreliable stream through 2 % iid
// loss; every loss report the client gets is repaired with WriteAt until
// the whole body has arrived — the §4.2 selective-retransmission path.
func driveQuicLossy(mb int) (nsPerMB float64, err error) {
	s := sim.New(1)
	path := drivePath(s)
	path.Down.Impair(netem.IIDLoss{P: 0.02}, 1)
	client, srv := quic.NewPair(s, path, quic.Config{}, quic.Config{})
	body := make([]byte, mb<<20)
	var sender, receiver *quic.Stream
	client.OnStream(func(st *quic.Stream) {
		receiver = st
		st.OnLost(func(off, n uint64) { sender.WriteAt(off, body[off:off+n]) })
	})
	ns, _ := timed(func() {
		sender = srv.OpenStream(true)
		sender.Write(body)
		sender.CloseWrite()
		s.RunUntil(10 * time.Minute)
	})
	if receiver == nil || receiver.Received().CoveredBytes() != uint64(len(body)) {
		return 0, fmt.Errorf("quic lossy driver: body not fully repaired")
	}
	return ns / float64(mb), nil
}

// driveHTTP issues n sequential 64 KiB range GETs of a ZeroObject.
func driveHTTP(n int) (nsPer, allocsPer float64, err error) {
	s := sim.New(1)
	cc, sc := quic.NewPair(s, drivePath(s), quic.Config{}, quic.Config{})
	httpsim.NewServer(sc, httpsim.HandlerFunc(func(string) (httpsim.Object, error) {
		return httpsim.ZeroObject(1 << 40), nil
	}), httpsim.ServerOptions{})
	cl := httpsim.NewClient(cc)
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		if issued == n {
			return
		}
		off := int64(issued) << 16
		issued++
		r := cl.Get("/object", httpsim.RangeSpec{{off, off + 1<<16}}, false, nil)
		r.OnComplete = func() { completed++; issue() }
	}
	ns, allocs := timed(func() {
		issue()
		s.RunUntil(10 * time.Minute)
	})
	if completed != n {
		return 0, 0, fmt.Errorf("httpsim driver: %d of %d requests completed", completed, n)
	}
	return ns / float64(n), allocs / float64(n), nil
}

// drivePlayer plays one VOXEL session over the fixed path.
func drivePlayer(v *video.Video, man *dash.Manifest) (nsPerSegment float64, err error) {
	s := sim.New(1)
	cc, sc := quic.NewPair(s, drivePath(s), quic.Config{}, quic.Config{})
	if _, err := server.New(sc, man, httpsim.ServerOptions{}); err != nil {
		return 0, err
	}
	pl := player.New(s, cc, v, man, player.Config{
		Algorithm: abr.NewABRStar(), Mode: player.ModeVoxel, BufferSegments: 7, Metric: qoe.SSIM,
	})
	ns, _ := timed(func() {
		pl.Run(nil)
		s.RunUntil(20 * man.Duration())
	})
	if !pl.Done() {
		return 0, fmt.Errorf("player driver: session did not finish")
	}
	return ns / float64(len(pl.Results().Segments)), nil
}

// driveABR asks ABR* for n decisions over the full candidate set: every
// manifest point of every quality, plus the full segments.
func driveABR(man *dash.Manifest, n int) (nsPerDecision float64) {
	segs := man.NumSegments()
	opts := make([]abr.Options, segs)
	for idx := range opts {
		for q := range man.Reps {
			seg := man.Segment(video.Quality(q), idx)
			var cands []abr.Candidate
			for i, pt := range seg.Points {
				cands = append(cands, abr.Candidate{
					Quality: video.Quality(q), Bytes: pt.Bytes, FullBytes: seg.Bytes,
					Score: pt.Score, Frames: pt.Frames, Virtual: i < len(seg.Points)-1,
				})
			}
			opts[idx].PerQuality = append(opts[idx].PerQuality, cands)
		}
	}
	alg := abr.NewABRStar()
	rng := xorshift(0xD1B54A32D192ED03)
	capacity := 7 * video.SegmentDuration
	ns, _ := timed(func() {
		for i := 0; i < n; i++ {
			r := rng.next()
			d := alg.Decide(abr.State{
				Buffer:      time.Duration(r % uint64(capacity)),
				BufferCap:   capacity,
				Throughput:  float64(1e6 + (r>>20)%19e6),
				LastQuality: video.Quality(r >> 50 % uint64(len(man.Reps))),
				Index:       i % segs, Total: segs,
			}, opts[i%segs])
			sink += float64(d.Candidate.Bytes)
		}
	})
	return ns / float64(n)
}

// sink keeps the compiler from discarding pure driver calls.
var sink float64

func driveQoE(seg *video.Segment, n int) (nsPerScore float64) {
	loss := make([]float64, len(seg.Frames))
	for i := 20; i < 60 && i < len(loss); i++ {
		loss[i] = 1
	}
	ns, _ := timed(func() {
		for i := 0; i < n; i++ {
			sink += qoe.DefaultModel.Score(qoe.SSIM, seg, loss)
		}
	})
	return ns / float64(n)
}

// driveVideoPrep synthesizes every quality of the first segs segments of a
// fresh title, then runs the offline analysis over what it synthesized.
func driveVideoPrep(segs int) (synthUSPerSegment, analyzeUSPerSegment float64) {
	v := video.MustLoad("BBB")
	n := segs * video.NumQualities
	ns, _ := timed(func() {
		for i := 0; i < segs; i++ {
			for q := video.Quality(0); q < video.NumQualities; q++ {
				sink += float64(v.Segment(i, q).TotalBytes())
			}
		}
	})
	synthUSPerSegment = ns / 1e3 / float64(n)
	a := prep.NewAnalyzer()
	ns, _ = timed(func() {
		for i := 0; i < segs; i++ {
			for q := video.Quality(0); q < video.NumQualities; q++ {
				sink += float64(a.Analyze(v.Segment(i, q), 0.9).MinBytes)
			}
		}
	})
	return synthUSPerSegment, ns / 1e3 / float64(n)
}

func driveDash(man *dash.Manifest, n int) (mpdMS, compactMS float64, err error) {
	ns, _ := timed(func() {
		for i := 0; i < n && err == nil; i++ {
			var b []byte
			b, err = man.EncodeMPD()
			sink += float64(len(b))
		}
	})
	if err != nil {
		return 0, 0, err
	}
	mpdMS = ns / 1e6 / float64(n)
	ns, _ = timed(func() {
		for i := 0; i < n; i++ {
			sink += float64(len(man.EncodeCompact()))
		}
	})
	return mpdMS, ns / 1e6 / float64(n), nil
}

// driveFold produces one telemetry sweep of the given size, then times the
// engine's fold and I/O over it: assemble, checkpoint write and load, and
// telemetry export.
func driveFold(trials, reps int, tmpDir string) (assembleUS, writeMS, loadMS, exportUS float64, err error) {
	dir, err := os.MkdirTemp(tmpDir, "fold-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sweep.ckpt")
	cfg := exp.Config{Title: "BBB", System: exp.SysVoxel, BufferSegments: 1, Trace: trace.Verizon(),
		Trials: trials, Segments: 1, Telemetry: true, Parallelism: 1}
	res, err := sweep.Run(cfg, sweep.Options{Checkpoint: path, Every: trials})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	per := float64(reps * trials)

	ns, _ := timed(func() {
		for i := 0; i < reps; i++ {
			sink += float64(len(exp.AssembleQuiet(cfg, res.Agg.Trials, nil).BufRatios))
		}
	})
	assembleUS = ns / 1e3 / per

	var cp *sweep.Checkpoint
	ns, _ = timed(func() {
		for i := 0; i < reps && err == nil; i++ {
			cp, err = sweep.LoadCheckpoint(path)
		}
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	loadMS = ns / 1e6 / float64(reps)

	ns, _ = timed(func() {
		for i := 0; i < reps && err == nil; i++ {
			err = cp.WriteFile(path)
		}
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	writeMS = ns / 1e6 / float64(reps)

	ns, _ = timed(func() {
		for i := 0; i < reps && err == nil; i++ {
			if err = res.Agg.Obs.WriteJSONL(io.Discard); err == nil {
				err = res.Agg.Obs.WriteCSV(io.Discard)
			}
		}
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return assembleUS, writeMS, loadMS, ns / 1e3 / per, nil
}

func driveSketch(n int) (nsPerAdd float64) {
	sk := stats.NewQuantileSketch(0)
	rng := xorshift(0xA0761D6478BD642F)
	ns, _ := timed(func() {
		for i := 0; i < n; i++ {
			sk.Add(float64(rng.next()%1_000_000) / 1e4)
		}
	})
	sink += sk.Quantile(0.9)
	return ns / float64(n)
}

// foldTrials is the size of the sweep driveFold folds, writes and loads.
const foldTrials = 400

// runDrivers runs every layer driver once and returns its metrics.
func runDrivers(sc scale, tmpDir string) (map[string]float64, error) {
	div := func(n int) int {
		if n /= sc.driverDiv; n < 1 {
			return 1
		}
		return n
	}
	m := map[string]float64{}
	var err error

	m["sim.ns_per_event"] = driveSim(div(2_000_000))
	if m["netem.ns_per_datagram"], m["netem.allocs_per_datagram"], err = driveNetem(div(400_000), ""); err != nil {
		return nil, err
	}
	if m["netem.impaired_ns_per_datagram"], _, err = driveNetem(div(400_000), netem.ProfileBursty); err != nil {
		return nil, err
	}
	if m["quic.bulk_ns_per_mb"], m["quic.allocs_per_mb"], err = driveQuicBulk(div(32)); err != nil {
		return nil, err
	}
	if m["quic.lossy_unreliable_ns_per_mb"], err = driveQuicLossy(div(16)); err != nil {
		return nil, err
	}
	if m["httpsim.ns_per_request"], m["httpsim.allocs_per_request"], err = driveHTTP(div(400)); err != nil {
		return nil, err
	}

	segs := 8
	if sc.driverDiv > 1 {
		segs = 2
	}
	v := video.MustLoad("BBB")
	v.Segments = segs
	man := dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: setupPoints, Analyzer: prep.NewAnalyzer()})
	if m["player.ns_per_segment"], err = drivePlayer(v, man); err != nil {
		return nil, err
	}
	m["abr.ns_per_decision"] = driveABR(man, div(20_000))
	m["qoe.ns_per_score"] = driveQoE(v.Segment(0, video.NumQualities-1), div(200_000))
	m["video.synth_us_per_segment"], m["prep.analyze_us_per_segment"] = driveVideoPrep(segs)
	if m["dash.encode_mpd_ms"], m["dash.encode_compact_ms"], err = driveDash(man, div(50)); err != nil {
		return nil, err
	}
	if m["exp.assemble_us_per_trial"], m["sweep.checkpoint_write_ms"], m["sweep.checkpoint_load_ms"],
		m["obs.export_us_per_trial"], err = driveFold(div(foldTrials), 3, tmpDir); err != nil {
		return nil, err
	}
	m["stats.sketch_ns_per_add"] = driveSketch(div(4_000_000))
	return m, nil
}

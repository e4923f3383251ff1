package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"voxel/internal/dash"
	"voxel/internal/exp"
	"voxel/internal/prep"
	"voxel/internal/qoe"
	"voxel/internal/stats"
	"voxel/internal/video"
)

// host is a reading of the process's own cost counters. Everything derived
// from it is a host number: noisy, bounded, never compared exactly.
type host struct {
	at      time.Time
	cpuS    float64 // user+sys, getrusage
	allocB  uint64  // MemStats.TotalAlloc
	mallocs uint64  // MemStats.Mallocs
}

func readHost() host {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return host{at: time.Now(), cpuS: tv(ru.Utime) + tv(ru.Stime), allocB: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// phase is a run of whole rounds with the host cost of running them.
type phase struct {
	rounds  []*round
	wallS   float64
	cpuS    float64
	allocB  uint64
	mallocs uint64
}

func (p *phase) trials() (n int) {
	for _, r := range p.rounds {
		n += r.trials
	}
	return n
}

func (p *phase) virtualS() float64 {
	var v float64
	for _, r := range p.rounds {
		v += r.virtualS
	}
	return v
}

// runPhase runs whole rounds, closed loop, until at least minWall has
// elapsed (always at least one round). Rounds are never cut short: every
// round is the same fixed set of trials, so rates taken over whole rounds
// have the same trial mix whatever the host's speed.
func (w *workload) runPhase(cells []cell, minWall time.Duration, o roundOpts, workload int) (*phase, error) {
	p := &phase{}
	h0 := readHost()
	for {
		id := o.rec.start(workload, "run")
		ro := o
		ro.parent = id
		rd, err := w.runRound(cells, ro)
		o.rec.end(id)
		if err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, rd)
		if time.Since(h0.at) >= minWall {
			break
		}
	}
	h1 := readHost()
	p.wallS = h1.at.Sub(h0.at).Seconds()
	p.cpuS = h1.cpuS - h0.cpuS
	p.allocB = h1.allocB - h0.allocB
	p.mallocs = h1.mallocs - h0.mallocs
	return p, nil
}

// setupPoints matches exp.ManifestFor, so a set-up here costs what a sweep
// pays before its first trial.
const setupPoints = 12

// setUp performs one cold set-up of the workload: load every title, build
// its VOXEL manifest with a fresh analyzer, resolve every trace.
func (w *workload) setUp(sc scale, rec *recorder, parent int) {
	id := rec.start(parent, "setup")
	for _, title := range w.titles {
		c := rec.start(id, "video.Load")
		v := video.MustLoad(title)
		rec.end(c)
		if n := w.segments(sc); n < v.Segments {
			v.Segments = n
		}
		c = rec.start(id, "dash.Build")
		dash.Build(v, dash.BuildOptions{Voxel: true, PointsPerSegment: setupPoints, Analyzer: prep.NewAnalyzer()})
		rec.end(c)
	}
	for _, name := range w.traces {
		c := rec.start(id, "trace.ByName")
		mustTrace(name)
		rec.end(c)
	}
	rec.end(id)
}

// measureSetup runs one batch of cold set-ups (at least 5, for at least
// sc.setupWall) and returns each one's wall seconds. Repeating matters: the
// small workloads set up in tens of milliseconds.
func (w *workload) measureSetup(sc scale, rec *recorder, parent int) []float64 {
	var out []float64
	t0 := time.Now()
	for len(out) < 5 || (time.Since(t0) < sc.setupWall && len(out) < 99) {
		t := time.Now()
		w.setUp(sc, rec, parent)
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

// warm fills exp's manifest cache so no timed round pays for a build.
func (w *workload) warm(sc scale) {
	for _, title := range w.titles {
		exp.ManifestFor(title, qoe.SSIM, w.segments(sc))
	}
}

// median is 0 for no samples, like stats.Mean.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// checkRounds verifies the outputs of a set of rounds: no failed trial, no
// unfinished session, and one digest (the same inputs must simulate to the
// same outputs every time, with or without telemetry).
func checkRounds(rounds []*round) (digest string, problems []string) {
	for i, r := range rounds {
		if r.failed > 0 {
			problems = append(problems, fmt.Sprintf("round %d: %d of %d trials failed (%s)", i, r.failed, r.trials, r.failure))
		}
		if i == 0 {
			digest = r.digest
		} else if r.digest != digest {
			problems = append(problems, fmt.Sprintf("round %d: sim_digest %s differs from round 0's %s", i, r.digest, digest))
		}
	}
	return digest, problems
}

// Package abr implements the adaptive-bitrate algorithms of the paper's
// evaluation: a naive throughput-based picker (Tput), BOLA (with the BOLA-E
// placeholder and abandonment features of [62]), robust MPC, BETA
// (reimplemented from its paper, as the authors did), and the paper's two
// contributions built on BOLA: BOLA-SSIM (QoE utility + partial-segment
// options) and ABR* (BOLA-SSIM plus smart segment abandonment that keeps
// the partial segment and moves on).
//
// Algorithms are pure decision logic: the player feeds them state and
// candidate sets and executes their decisions.
package abr

import (
	"math"
	"time"

	"voxel/internal/video"
)

// Candidate is one downloadable option for the next segment: a quality
// level, optionally cut down to a virtual quality level (a byte prefix of
// the VOXEL download order).
type Candidate struct {
	Quality video.Quality
	// Bytes to download; less than FullBytes for virtual levels.
	Bytes int
	// FullBytes is the segment's full size at this quality.
	FullBytes int
	// Score is the expected QoE of this option (metric per manifest).
	Score float64
	// Frames delivered by this option.
	Frames int
	// Virtual marks a partial-segment option.
	Virtual bool
}

// Bitrate returns the option's effective bitrate in bits per second.
func (c Candidate) Bitrate() float64 {
	return float64(c.Bytes*8) / video.SegmentDuration.Seconds()
}

// Options is the per-segment decision space. PerQuality[q] holds the
// candidates at quality q sorted by Bytes ascending, the full segment last.
// Non-VOXEL manifests have exactly one (full) candidate per quality.
type Options struct {
	PerQuality [][]Candidate
	// Flat, when the builder laid every candidate out in one array in
	// quality order (PerQuality's entries being windows of it), is that
	// array: All hands it out as is, so it is read-only.
	Flat []Candidate
}

// Full returns the full-segment candidate at quality q.
func (o *Options) Full(q video.Quality) Candidate {
	cands := o.PerQuality[q]
	return cands[len(cands)-1]
}

// All returns every candidate in quality order: Flat itself, or failing that
// the concatenation of PerQuality appended to dst. Callers only read it.
func (o *Options) All(dst []Candidate) []Candidate {
	if o.Flat != nil {
		return o.Flat
	}
	for _, cs := range o.PerQuality {
		dst = append(dst, cs...)
	}
	return dst
}

// State is the player state an algorithm decides on.
type State struct {
	// Buffer is the media currently buffered.
	Buffer time.Duration
	// BufferCap is the maximum buffer (segments × segment duration).
	BufferCap time.Duration
	// Throughput is the player's current estimate in bits per second.
	Throughput float64
	// LastQuality is the previously selected quality.
	LastQuality video.Quality
	// Index is the segment about to be chosen; Total the segment count.
	Index, Total int
	// Startup is true until playback began.
	Startup bool
}

// Decision is what to do next.
type Decision struct {
	Candidate Candidate
	// Sleep > 0 means: do not download now (buffer full); re-ask after
	// this long.
	Sleep time.Duration
}

// Progress describes an in-flight download for abandonment checks.
type Progress struct {
	Candidate Candidate
	BytesDone int
	Elapsed   time.Duration
	// Throughput is the measured rate of this download so far (bps).
	Throughput float64
}

// AbandonKind enumerates abandonment outcomes.
type AbandonKind int

// Abandonment outcomes: keep going; discard and restart at a new (lower)
// candidate (BOLA-style); or finish with what arrived and move on
// (VOXEL's extension, §4.3).
const (
	Continue AbandonKind = iota
	Restart
	FinishPartial
)

// AbandonAction is the result of an abandonment check.
type AbandonAction struct {
	Kind AbandonKind
	// NewCandidate is the restart target (Kind == Restart).
	NewCandidate Candidate
}

// Sample is a completed-download measurement fed back to algorithms.
type Sample struct {
	Throughput float64 // bps achieved
	Duration   time.Duration
}

// Algorithm is the ABR interface the player drives.
type Algorithm interface {
	Name() string
	// Decide picks the next download (or a sleep when the buffer is full).
	Decide(st State, opts Options) Decision
	// Abandon is polled periodically during a download.
	Abandon(st State, opts Options, p Progress) AbandonAction
	// OnSample feeds back a completed download's measured throughput.
	OnSample(s Sample)
}

// noSamples provides the no-op OnSample shared by algorithms that rely on
// the player's estimate only.
type noSamples struct{}

func (noSamples) OnSample(Sample) {}

// scoreUtility maps a QoE score (SSIM-like in [0,1], or normalized
// VMAF/PSNR) to a concave increasing utility, the QoE analogue of BOLA's
// ln(S/S_min) bitrate utility.
func scoreUtility(score, perfect float64) float64 {
	const eps = 0.005
	norm := score / perfect
	if norm > 1 {
		norm = 1
	}
	if norm < 0 {
		norm = 0
	}
	return math.Log((1 + eps) / (1 + eps - norm))
}

// segSeconds is the segment duration in seconds.
func segSeconds() float64 { return video.SegmentDuration.Seconds() }

package player

import (
	"testing"
	"time"

	"voxel/internal/httpsim"
	"voxel/internal/invariant"
	"voxel/internal/sim"
)

// armedPlayer is a bare player on a kernel with the checker armed: enough for
// the clock and the settle check, which read nothing else.
func armedPlayer() *Player {
	s := sim.New(1)
	s.SetChecker(invariant.New())
	return &Player{sim: s}
}

// wantViolation fails t unless the recovered panic r is a violation of rule.
func wantViolation(t *testing.T, r any, rule invariant.Rule) {
	t.Helper()
	if v, ok := invariant.AsViolation(r); !ok || v.Rule != rule {
		t.Fatalf("recovered %v, want a %s violation", r, rule)
	}
}

// TestWitnessPlayerBufferNonnegative: a negative buffer is a
// player.buffer-nonnegative violation at the next clock sync.
func TestWitnessPlayerBufferNonnegative(t *testing.T) {
	p := armedPlayer()
	p.buffer = -time.Millisecond
	defer func() { wantViolation(t, recover(), invariant.PlayerBufferNonnegative) }()
	p.syncBuffer()
}

// TestWitnessPlayerSettleCoverage: a settled range outside its plan — bytes
// received past the one range the download's request asked for — is a
// player.settle-coverage violation.
func TestWitnessPlayerSettleCoverage(t *testing.T) {
	p := armedPlayer()
	dl := &download{index: 3, segStart: 5000,
		body: &httpsim.Response{Ranges: httpsim.RangeSpec{{5000, 6000}}}}
	dl.received.Add(0, 1500)
	defer func() { wantViolation(t, recover(), invariant.PlayerSettleCoverage) }()
	p.checkSettled(dl)
}

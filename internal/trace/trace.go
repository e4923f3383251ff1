// Package trace provides the bandwidth traces the paper evaluates on.
//
// The paper uses five recorded traces — three Mahimahi LTE traces (T-Mobile,
// Verizon, AT&T), a Norwegian 3G commute trace set from Riiser et al., and an
// FCC fixed-line broadband trace — each linearly offset so the average rate
// matches the 10 Mbps top video bitrate (§5, "Network traces"). The recorded
// files are not redistributable here, so this package generates synthetic
// traces from seeded regime-switching models that are matched to the
// published summary statistics: standard deviations of ≈9–10 Mbps for
// T-Mobile and Verizon, 2.88 Mbps for AT&T, 1.1 Mbps for 3G, and 2.35 Mbps
// for FCC, all offset to a 10 Mbps mean. The per-trial linear shift by d/30
// seconds used in §5 is reproduced by Shifted.
package trace

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"voxel/internal/sim"
)

// Trace is a time-varying available-bandwidth series. Rates are in bits per
// second. Traces repeat: querying beyond Duration wraps around, matching how
// the testbed replays trace files in a loop.
type Trace struct {
	name    string
	samples []float64 // one per second, bps
}

// New builds a trace from per-second samples in bits per second. An empty
// sample set is an error: a trace with no samples has no rate to report at
// any time.
func New(name string, samples []float64) (*Trace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("trace: %q has an empty sample set", name)
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	return &Trace{name: name, samples: cp}, nil
}

// MustNew is New for statically-known-good sample sets (generators, tests);
// it panics on error.
func MustNew(name string, samples []float64) *Trace {
	t, err := New(name, samples)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Duration returns the length of one pass through the trace.
func (t *Trace) Duration() sim.Time {
	return time.Duration(len(t.samples)) * time.Second
}

// RateAt returns the available bandwidth in bits per second at virtual time
// at, wrapping around the trace duration.
func (t *Trace) RateAt(at sim.Time) float64 {
	if at < 0 {
		at = 0
	}
	idx := int(at/time.Second) % len(t.samples)
	return t.samples[idx]
}

// Samples returns the underlying per-second series (read-only).
func (t *Trace) Samples() []float64 { return t.samples }

// Mean returns the average rate in bps.
func (t *Trace) Mean() float64 {
	var s float64
	for _, v := range t.samples {
		s += v
	}
	return s / float64(len(t.samples))
}

// StdDev returns the standard deviation of the per-second rates in bps.
func (t *Trace) StdDev() float64 {
	m := t.Mean()
	var ss float64
	for _, v := range t.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(t.samples)))
}

// Shifted returns a copy of the trace rotated left by offset, wrapping
// around, implementing the paper's per-trial linear trace shift.
func (t *Trace) Shifted(offset sim.Time) *Trace {
	n := len(t.samples)
	k := int(offset/time.Second) % n
	if k < 0 {
		k += n
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = t.samples[(i+k)%n]
	}
	return &Trace{name: t.name, samples: out}
}

// OffsetToMean returns a copy linearly offset so the mean equals target bps,
// clamping at a small positive floor so the link never fully dies, matching
// the paper's adjustment that "leaves the throughput variations intact".
func (t *Trace) OffsetToMean(target float64) *Trace {
	out := make([]float64, len(t.samples))
	copy(out, t.samples)
	// Clamping at the floor pulls the mean back up, so iterate the offset a
	// few times until the clamped mean converges on the target.
	for iter := 0; iter < 8; iter++ {
		var m float64
		for _, v := range out {
			m += v
		}
		m /= float64(len(out))
		delta := target - m
		if math.Abs(delta) < 1e3 {
			break
		}
		for i, v := range out {
			nv := v + delta
			if nv < minRate {
				nv = minRate
			}
			out[i] = nv
		}
	}
	return &Trace{name: t.name, samples: out}
}

const (
	// minRate is the floor applied when offsetting; a hard zero would stall
	// the simulated link forever, which recorded traces avoid too.
	minRate = 50e3 // 50 kbps
	// Mbps converts megabits per second to bits per second.
	Mbps = 1e6
)

func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// genParams describes a regime-switching bandwidth model: the process picks
// a regime (fraction of the mean), holds it for a geometric time, and adds
// AR(1) noise on top. This matches the bursty high/low structure of the
// cellular traces the paper uses.
type genParams struct {
	mean      float64   // bps before offset
	regimes   []float64 // multiples of mean
	holdMean  float64   // seconds, mean regime holding time
	noiseFrac float64   // AR(1) innovation stddev as fraction of mean
	arCoeff   float64
	outageP   float64 // probability a regime is a near-outage
	// outageHold shortens near-outage regimes (LTE dips are brief even in
	// highly varying traces); 0 means use holdMean.
	outageHold float64
	// outageLevel is the outage regime as a fraction of the mean
	// (default 0.04).
	outageLevel float64
}

func generate(name string, seconds int, p genParams) *Trace {
	rng := rand.New(rand.NewSource(seedFor(name)))
	samples := make([]float64, seconds)
	regime := p.regimes[rng.Intn(len(p.regimes))]
	hold := 0
	noise := 0.0
	for i := 0; i < seconds; i++ {
		if hold <= 0 {
			if rng.Float64() < p.outageP {
				regime = p.outageLevel
				if regime == 0 {
					regime = 0.04
				}
				oh := p.outageHold
				if oh == 0 {
					oh = p.holdMean
				}
				hold = 1 + int(rng.ExpFloat64()*oh)
			} else {
				regime = p.regimes[rng.Intn(len(p.regimes))]
				hold = 1 + int(rng.ExpFloat64()*p.holdMean)
			}
		}
		hold--
		noise = p.arCoeff*noise + rng.NormFloat64()*p.noiseFrac*p.mean
		v := p.mean*regime + noise
		if v < minRate {
			v = minRate
		}
		samples[i] = v
	}
	return MustNew(name, samples)
}

// The standard trace length: long enough to cover the 5-minute clips plus
// shifting, mirroring the recorded traces.
const defaultSeconds = 600

// TMobile returns the synthetic stand-in for the Mahimahi T-Mobile LTE
// trace: mean 10 Mbps, stddev ≈ 9–10 Mbps, frequent deep outages.
func TMobile() *Trace {
	t := generate("tmobile-lte", defaultSeconds, genParams{
		mean: 10 * Mbps,
		// LTE rates mix quickly: regimes hold ≈1 s, so the per-second
		// stddev is huge while multi-second window averages stay usable —
		// the structure the Mahimahi recordings show.
		regimes:     []float64{0.35, 0.65, 1.0, 1.55, 3.25},
		holdMean:    1.2,
		noiseFrac:   0.08,
		arCoeff:     0.5,
		outageP:     0.035,
		outageHold:  4.0, // rare but sustained dead zones, as the recording has
		outageLevel: 0.42,
	})
	return t.OffsetToMean(10 * Mbps)
}

// Verizon returns the synthetic stand-in for the Mahimahi Verizon LTE
// trace: mean 10 Mbps, stddev ≈ 9–10 Mbps, slightly longer regimes than
// T-Mobile.
func Verizon() *Trace {
	t := generate("verizon-lte", defaultSeconds, genParams{
		mean:        10 * Mbps,
		regimes:     []float64{0.45, 0.7, 1.0, 1.5, 3.1},
		holdMean:    1.5,
		noiseFrac:   0.08,
		arCoeff:     0.55,
		outageP:     0.02,
		outageHold:  3.0,
		outageLevel: 0.45,
	})
	return t.OffsetToMean(10 * Mbps)
}

// ATT returns the synthetic stand-in for the Mahimahi AT&T LTE trace:
// mean 10 Mbps, stddev ≈ 2.88 Mbps — much tamer than T-Mobile/Verizon.
func ATT() *Trace {
	t := generate("att-lte", defaultSeconds, genParams{
		mean:      10 * Mbps,
		regimes:   []float64{0.72, 0.9, 1.0, 1.12, 1.3},
		holdMean:  8,
		noiseFrac: 0.12,
		arCoeff:   0.7,
		outageP:   0.01,
	})
	return t.OffsetToMean(10 * Mbps)
}

// Norway3G returns the synthetic stand-in for the Riiser 3G commute trace,
// offset to a 10 Mbps mean with stddev ≈ 1.1 Mbps as in §5.
func Norway3G() *Trace {
	t := generate("norway-3g", defaultSeconds, genParams{
		mean:      10 * Mbps,
		regimes:   []float64{0.88, 0.95, 1.0, 1.06, 1.12},
		holdMean:  10,
		noiseFrac: 0.05,
		arCoeff:   0.75,
		outageP:   0.004,
	})
	return t.OffsetToMean(10 * Mbps)
}

// FCC returns the synthetic stand-in for the FCC fixed-line broadband
// trace: mean 10 Mbps, stddev ≈ 2.35 Mbps.
func FCC() *Trace {
	t := generate("fcc-broadband", defaultSeconds, genParams{
		mean:      10 * Mbps,
		regimes:   []float64{0.8, 0.95, 1.0, 1.1, 1.2},
		holdMean:  15,
		noiseFrac: 0.1,
		arCoeff:   0.7,
		outageP:   0.008,
	})
	return t.OffsetToMean(10 * Mbps)
}

// Riiser3GSet returns n distinct low-bandwidth 3G commute traces in their
// natural (un-offset) form, standing in for the 86 Riiser et al. traces the
// Fig. 10 ablation streams over. Means range ≈1.5–6 Mbps; the low average
// bandwidth is what stress-tests the ABR algorithms there.
func Riiser3GSet(n int) []*Trace {
	traces := make([]*Trace, n)
	for i := range traces {
		name := fmt.Sprintf("riiser-3g-%02d", i)
		rng := rand.New(rand.NewSource(seedFor(name)))
		mean := (1.5 + 4.5*rng.Float64()) * Mbps
		traces[i] = generate(name, defaultSeconds, genParams{
			mean:      mean,
			regimes:   []float64{0.25, 0.6, 0.9, 1.2, 1.6},
			holdMean:  7,
			noiseFrac: 0.15,
			arCoeff:   0.6,
			outageP:   0.08,
		})
	}
	return traces
}

// Constant returns a trace with a fixed rate, as used by the Fig. 11
// synthetic experiments.
func Constant(name string, bps float64, seconds int) *Trace {
	samples := make([]float64, seconds)
	for i := range samples {
		samples[i] = bps
	}
	return MustNew(name, samples)
}

// Step returns a trace that holds `before` bps until stepAt and `after` bps
// afterwards, as in Fig. 11's 10.75→10.5 Mbps step trace.
func Step(name string, before, after float64, stepAt sim.Time, seconds int) *Trace {
	samples := make([]float64, seconds)
	stepSec := int(stepAt / time.Second)
	for i := range samples {
		if i < stepSec {
			samples[i] = before
		} else {
			samples[i] = after
		}
	}
	return MustNew(name, samples)
}

// InTheWild returns a WiFi-like path profile standing in for the paper's
// France→Germany in-the-wild runs: generally plentiful bandwidth with
// occasional contention dips.
func InTheWild() *Trace {
	return generate("in-the-wild-wifi", defaultSeconds, genParams{
		mean:      18 * Mbps,
		regimes:   []float64{0.4, 0.8, 1.0, 1.2, 1.4},
		holdMean:  12,
		noiseFrac: 0.1,
		arCoeff:   0.7,
		outageP:   0.03,
	})
}

// ByName resolves the canonical experiment traces by the names used in the
// paper's figures.
func ByName(name string) (*Trace, error) {
	switch name {
	case "tmobile", "T-Mobile":
		return TMobile(), nil
	case "verizon", "Verizon":
		return Verizon(), nil
	case "att", "AT&T":
		return ATT(), nil
	case "3g", "3G":
		return Norway3G(), nil
	case "fcc", "FCC":
		return FCC(), nil
	case "wild", "in-the-wild":
		return InTheWild(), nil
	default:
		return nil, fmt.Errorf("trace: unknown trace %q", name)
	}
}

// Names lists the canonical trace names accepted by ByName.
func Names() []string { return []string{"tmobile", "verizon", "att", "3g", "fcc", "wild"} }

// canonicalByInternal maps each canonical trace's internal name back to its
// ByName key, so a replay command can name the flag value that rebuilds it.
var canonicalByInternal = map[string]string{
	"tmobile-lte":      "tmobile",
	"verizon-lte":      "verizon",
	"att-lte":          "att",
	"norway-3g":        "3g",
	"fcc-broadband":    "fcc",
	"in-the-wild-wifi": "wild",
}

// CanonicalName returns the ByName key that rebuilds this trace; ok is
// false for traces outside the canonical set (constant, step, Riiser,
// shifted copies).
func CanonicalName(t *Trace) (string, bool) {
	name, ok := canonicalByInternal[t.name]
	return name, ok
}

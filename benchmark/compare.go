package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != 1 {
		return nil, fmt.Errorf("%s: result-set schema %d, want 1", path, set.Schema)
	}
	return &set, nil
}

// compareFiles gates a new result set against a base one and returns the
// process exit code: 0 when every end-to-end metric of every workload is
// within its bound, 1 when any is worse, 2 when the sets cannot be compared.
// Host metrics may drift by their bound; simulated metrics, the digest and
// the failed share may not move at all.
func compareFiles(basePath, newPath string, out io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{basePath, newPath} {
		set, err := loadResultSet(path)
		if err != nil {
			fmt.Fprintf(out, "compare: %v\n", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(sets[0], sets[1], out)
}

func compareSets(base, next *resultSet, out io.Writer) int {
	if base.Seed != next.Seed || base.Scale != next.Scale {
		fmt.Fprintf(out, "compare: seed/scale differ (%d/%s vs %d/%s); simulated metrics are only comparable at equal inputs\n",
			base.Seed, base.Scale, next.Seed, next.Scale)
		return 2
	}
	byName := map[string]*workloadResult{}
	for _, w := range next.Workloads {
		byName[w.Name] = w
	}
	worse := 0
	flag := func(bad bool) string {
		if bad {
			worse++
			return "WORSE"
		}
		return "ok"
	}
	fmt.Fprintf(out, "%-13s %-22s %16s %16s %9s %7s\n", "workload", "metric", "base", "new", "ratio", "bound")
	for _, b := range base.Workloads {
		n := byName[b.Name]
		if n == nil {
			fmt.Fprintf(out, "%-13s missing from the new result set  %s\n", b.Name, flag(true))
			continue
		}
		for _, d := range endToEnd {
			bv, nv := b.EndToEnd[d.name].Value, n.EndToEnd[d.name].Value
			bound, label := d.bound, fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.simulated {
				bound, label = 0, "exact"
			}
			var bad bool
			switch {
			case d.simulated:
				bad = nv != bv
			case d.better == "lower":
				bad = nv > bv*(1+bound)
			default:
				bad = nv < bv*(1-bound)
			}
			ratio := 1.0
			if bv != 0 {
				ratio = nv / bv
			}
			fmt.Fprintf(out, "%-13s %-22s %16.6f %16.6f %9.4f %7s  %s\n", b.Name, d.name, bv, nv, ratio, label, flag(bad))
		}
		same := 0
		for _, d := range perLayer {
			if !d.simulated {
				continue
			}
			if bv, nv := b.PerLayer[d.name].Value, n.PerLayer[d.name].Value; nv != bv {
				fmt.Fprintf(out, "%-13s %-22s %16.6f %16.6f %9s %7s  %s\n", b.Name, d.name, bv, nv, "", "exact", flag(true))
			} else {
				same++
			}
		}
		fmt.Fprintf(out, "%-13s %d simulated per-layer metrics identical\n", b.Name, same)
		bs, ns := failedShare(b), failedShare(n)
		fmt.Fprintf(out, "%-13s %-22s %16.6f %16.6f %9s %7s  %s\n", b.Name, "failed_share", bs, ns, "", "0", flag(ns > bs))
		fmt.Fprintf(out, "%-13s %-22s %16.16s %16.16s %9s %7s  %s\n", b.Name, "sim_digest", b.Digest, n.Digest, "", "exact", flag(n.Digest != b.Digest))
	}
	if worse > 0 {
		fmt.Fprintf(out, "compare: %d metric(s) worse than their bound\n", worse)
		return 1
	}
	fmt.Fprintf(out, "compare: every metric within its bound\n")
	return 0
}

func failedShare(w *workloadResult) float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}

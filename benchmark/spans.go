package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans are recorded from outside the program (no tracing lives in
// internal/), kept in memory, and written out once when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
}

// recorder collects spans on the benchmark's own goroutine. A nil recorder
// records nothing, which is how timed (untraced) runs stay span-free.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// start opens a span under parent and returns its id (0 on a nil recorder).
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartNS: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNS = time.Since(r.t0).Nanoseconds()
}

// seconds returns the durations of every finished span with the given name.
func (r *recorder) seconds(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.EndNS >= s.StartNS {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// childSeconds sums, per parent span named parent, the durations of its
// direct children named child.
func (r *recorder) childSeconds(parent, child string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, p := range r.spans {
		if p.Name != parent {
			continue
		}
		var sum float64
		for _, c := range r.spans {
			if c.Parent == p.ID && c.Name == child {
				sum += float64(c.EndNS-c.StartNS) / 1e9
			}
		}
		out = append(out, sum)
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the layer's public function.
type span struct {
	Name string `json:"name"`
	// Op is the work-list index of the operation the span belongs to.
	Op int `json:"op"`
	// Parent indexes the enclosing span; -1 marks a root.
	Parent int `json:"parent"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps a single-threaded replay's spans in memory. Spans nest
// strictly (begin/end pairs on one goroutine), so children of one parent
// never overlap and self time is duration minus the children's durations.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// do runs f inside a span named name.
func (t *tracer) do(name string, op int, f func()) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	f()
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	calls int
	self  int64 // ns
}

// meanSelfMs is the mean self time per call in milliseconds.
func (l layerTime) meanSelfMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(l.calls) / 1e6
}

// summary folds the spans into per-name call counts and self times, and
// returns the time covered by root spans.
func (t *tracer) summary() (map[string]layerTime, int64) {
	child := make([]int64, len(t.spans))
	var covered int64
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			covered += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out, covered
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace turns a replay's spans into the per-layer timing metrics,
// writes the spans to spans-<workload>.jsonl beside the run's scratch
// directory (.bench_build/ for the command), and records the
// replay's wall time against the untraced pass's.
func (r *run) finishTrace(t *tracer, replayS, untracedS float64) error {
	sum, covered := t.summary()
	for _, l := range []struct{ metric, span string }{
		{"topo.build_ms", "topo.build"},
		{"metrics.paths_ms", "metrics.paths"},
		{"traffic.gen_ms", "traffic.gen"},
		{"mcf.solve_ms", "mcf.solve"},
		{"experiments.cell_ms", "experiments.cell"},
		{"serve.lookup_ms", "serve.lookup"},
		{"serve.compute_ms", "serve.compute"},
		{"store.get_ms", "store.get"},
		{"store.put_ms", "store.put"},
	} {
		r.layer[l.metric] = sum[l.span].meanSelfMs()
	}
	r.layer["topo.builds"] = float64(sum["topo.build"].calls)
	if mcf := sum["mcf.solve"]; r.layer["mcf.dijkstras"] > 0 {
		r.layer["mcf.ns_per_dijkstra"] = float64(mcf.self) / r.layer["mcf.dijkstras"]
	}
	r.layer["trace.run_s"] = replayS
	r.layer["trace.overhead_frac"] = replayS/untracedS - 1
	r.layer["trace.coverage_frac"] = float64(covered) / 1e9 / replayS
	return t.write(filepath.Join(filepath.Dir(r.dir), "spans-"+r.workload+".jsonl"))
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Req    int64  `json:"req"`    // request or pass id shared by a span tree
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay for no tracing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, req int64, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already measured span, for calls timed inside code that
// only hands back durations.
func (t *tracer) record(parent int, req int64, layer, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(t.spans)
}

// selfTimes sums, per layer, each span's duration minus the time its
// direct children cover. Children of one span run one after another in
// this benchmark, so their durations add without overlap.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace reports self time per layer and the span count, and writes
// the spans next to the build outputs.
func finishTrace(t *tracer, cfg config, workload string, out *outcome) {
	for _, l := range layers {
		out.layer["self_ms."+l] = 0
	}
	for l, ms := range t.selfTimes() {
		out.layer["self_ms."+l] = ms
	}
	out.layer["trace.spans"] = float64(t.count())
	path := filepath.Join(cfg.workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	if err := t.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
}

// overheadPct is how much worse the traced phase's cost metric is than
// the untraced phase's, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

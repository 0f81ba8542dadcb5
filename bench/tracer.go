package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adhocshare/internal/trace"
)

// hostSpan is one interval of host time at a layer boundary, recorded by
// the benchmark around its call into the layer. The spans of one op share
// Op; Parent links a span to the one that caused it (0 for a root).
type hostSpan struct {
	Name string `json:"name"`
	// Group is the part of the traced run the span belongs to: a probe
	// (micro, point, join, publish) or "harness" for the traced round of
	// the workload named on the command line.
	Group  string `json:"group"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Counts holds what was counted at the same boundary: messages, hops,
	// rows, postings.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps the host spans of a traced run in memory and writes them
// out when the run ends, together with a sample of the virtual-clock spans
// the fabric recorded.
type tracer struct {
	epoch time.Time
	// group labels the spans recorded from now on; durations and counts
	// read only the current group's.
	group string
	spans []hostSpan
	// virtual holds, per workload, the fabric spans of its first traced
	// cycle, capped at maxVirtualSpans.
	virtual map[string][]trace.Span
}

// maxVirtualSpans bounds the fabric spans kept per workload for the Chrome
// trace; a whole cycle of point lookups would be tens of thousands.
const maxVirtualSpans = 5000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), virtual: map[string][]trace.Span{}}
}

// begin opens a span and returns its id. The clock is read last, after the
// bookkeeping, so the span covers only what follows.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, hostSpan{Name: name, Group: t.group, Op: op, ID: len(t.spans) + 1, Parent: parent})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.epoch))
	return s.ID
}

// end closes a span; the clock is read first.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.spans[id-1].End = now
}

// count attaches a count to a span.
func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// add records a root span whose interval was measured by the caller.
func (t *tracer) add(name string, op int, start, end time.Time) {
	t.spans = append(t.spans, hostSpan{Name: name, Group: t.group, Op: op, ID: len(t.spans) + 1,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// durations returns the length of every span of the given name in the
// current group, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].Group == t.group {
			out = append(out, float64(t.spans[i].End-t.spans[i].Start))
		}
	}
	return out
}

// counts returns one count of every span of the given name in the current
// group that has it.
func (t *tracer) counts(name, key string) []float64 {
	var out []float64
	for i := range t.spans {
		if v, ok := t.spans[i].Counts[key]; ok && t.spans[i].Name == name && t.spans[i].Group == t.group {
			out = append(out, v)
		}
	}
	return out
}

// keepVirtual keeps the fabric spans of a workload's first traced cycle.
func (t *tracer) keepVirtual(workload string, buf *trace.Buffer) {
	if _, kept := t.virtual[workload]; kept {
		return
	}
	spans := buf.Spans()
	if len(spans) > maxVirtualSpans {
		spans = spans[:maxVirtualSpans]
	}
	t.virtual[workload] = spans
}

// write puts host_spans.json and one Chrome trace per workload into dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "host_spans.json"), data, 0o644); err != nil {
		return err
	}
	for workload, spans := range t.virtual {
		if err := writeChrome(filepath.Join(dir, "virtual_"+workload+".chrome.json"), spans); err != nil {
			return fmt.Errorf("virtual spans of %s: %w", workload, err)
		}
	}
	return nil
}

func writeChrome(path string, spans []trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

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

// span is one timed call into a layer. Spans of one dial or one
// request share id; parent is the index of the enclosing span, or -1.
type span struct {
	id         uint64
	parent     int32
	name       uint16
	start, end int64 // ns since the tracer's origin
}

// tracer keeps every span in memory and writes them out when the run
// ends, so tracing costs two clock reads and an append per span.
type tracer struct {
	t0    time.Time
	names []string

	mu    sync.Mutex
	spans []span
	// open is the stack of unfinished spans begun with begin. It
	// serves workloads whose instrumented calls all run on one
	// goroutine (the dial loop, or the simulated clock's callbacks);
	// concurrent code records finished spans with add.
	open []int32
}

func newTracer(names ...string) *tracer {
	return &tracer{t0: time.Now(), names: names, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name uint16, id uint64) int32 {
	start := t.now()
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start})
	t.open = append(t.open, i)
	t.mu.Unlock()
	return i
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].end = end
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name uint16, id uint64, parent int32, start, end int64) int32 {
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
	return i
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration
	self  time.Duration // total minus what direct children cover
}

// stats aggregates spans by name. Children nest within their parent
// on one goroutine, so a parent's self time is its duration minus the
// sum of its direct children's.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[string]*spanStats, len(t.names))
	for _, name := range t.names {
		out[name] = &spanStats{}
	}
	for i, s := range t.spans {
		st := out[t.names[s.name]]
		st.count++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(self[i])
	}
	return out
}

// maxWrittenSpans bounds the span log on disk; a 100k-node crawl
// makes well over a million spans, and the aggregates above cover
// all of them.
const maxWrittenSpans = 200_000

// write saves the spans as JSON lines under dir, the first
// maxWrittenSpans of them, and returns the file's path.
func (t *tracer) write(dir, stem string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.Encode(struct { //nolint:errcheck // the Flush below reports write errors
		Spans   int    `json:"spans"`
		Written int    `json:"written"`
		Origin  string `json:"origin"`
	}{len(spans), min(len(spans), maxWrittenSpans), t.t0.Format(time.RFC3339Nano)})
	for i, s := range spans {
		if i == maxWrittenSpans {
			break
		}
		fmt.Fprintf(w, `{"i":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.id, s.parent, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans live in
// memory for the whole traced run and are written out once at the end.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key ties a span to the configuration it served (the cache key for
	// store spans, the config label for request spans), which is how child
	// spans recorded by a different wrapper find their parent.
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Tag carries a store lookup's outcome ("hit"/"miss") or, on a
	// handler span, the benchmark's request ID.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay one comparison per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer started (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// record stores a finished span, numbering it.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
}

// byName returns copies of every span with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsUS returns the durations of the named spans in microseconds.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, float64(s.dur())/1e3)
	}
	return out
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// adopt links each child span to a parent: the parent with the same Key
// whose interval contains the child, preferring the latest-starting one
// when several do (two clients asking for one configuration at once). It
// sets Parent on the children in place and returns them grouped by parent
// ID; children that no parent contains are left out.
func adopt(parents, children []span) map[int64][]span {
	ps := append([]span(nil), parents...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	out := make(map[int64][]span)
	for i := range children {
		c := &children[i]
		best := -1
		for j, p := range ps {
			if p.Start > c.Start {
				break
			}
			if p.Key == c.Key && p.End >= c.End {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = ps[best].ID
			out[c.Parent] = append(out[c.Parent], *c)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once, and the parts of a
// child outside the parent do not count.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

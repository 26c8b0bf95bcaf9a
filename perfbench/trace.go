package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call.  Parent 0 means a root span; Run ties the spans of one
// pass or one HTTP request together.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"` // "<layer>.<operation>"
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// the untraced configuration: every method is a no-op returning 0.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its ID.
func (t *tracer) record(name string, parent int, run string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, run, start.Sub(t.t0), end.Sub(t.t0)})
	return id
}

// begin opens a span whose end is set by the returned function.  The
// span's ID is reserved at once, so children recorded before the end
// can name it as their parent.
func (t *tracer) begin(name string, parent int, run string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.record(name, parent, run, start, start)
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = now.Sub(t.t0)
		t.mu.Unlock()
	}
}

// count returns the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span its child spans cover.  The layer
// is the span name's prefix before the first dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// levelClock turns a backend's per-level observer calls into child
// spans: level k's span runs from the previous call (or the clock's
// start) to this one.  It also keeps the longest level.
type levelClock struct {
	tr      *tracer
	name    string
	parent  int
	run     string
	last    time.Time
	longest time.Duration
	levels  map[int]time.Duration // by consumed clique size
}

func newLevelClock(tr *tracer, name string, parent int, run string) *levelClock {
	return &levelClock{tr: tr, name: name, parent: parent, run: run, last: time.Now(),
		levels: make(map[int]time.Duration)}
}

// tick records the end of the generation step that consumed k-cliques.
func (c *levelClock) tick(k int) {
	now := time.Now()
	d := now.Sub(c.last)
	c.tr.record(c.name, c.parent, c.run, c.last, now)
	c.levels[k] += d
	c.longest = max(c.longest, d)
	c.last = now
}

// writeSpans dumps the run's spans as JSON.
func (r *result) writeSpans(path string) error {
	if r.tr == nil {
		return nil
	}
	r.tr.mu.Lock()
	data, err := json.Marshal(r.tr.spans)
	r.tr.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// setSelfTimes reports each layer's self time per traced pass.
func (r *result) setSelfTimes(passes int) {
	self := r.tr.selfTimes()
	for _, l := range layers {
		r.set("self."+l+"_s", seconds(self[l])/float64(max(passes, 1)), passes)
	}
	r.set("trace.spans", float64(r.tr.count()), 1)
}

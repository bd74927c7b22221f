package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span in the trace, -1 for a
// root. Times are nanoseconds since the trace began.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	// Placed marks a span whose duration was measured by the program
	// under test (the ?debug=1 stage block) but whose position inside
	// its parent the harness had to assume: stages are laid end to end
	// from the parent's start.
	Placed bool `json:"placed,omitempty"`
}

// Trace keeps spans in memory until the run ends.
type Trace struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTrace() *Trace { return &Trace{epoch: time.Now()} }

func (t *Trace) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index.
func (t *Trace) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// time runs fn under a span.
func (t *Trace) time(name string, parent, op int, fn func()) {
	start := t.now()
	fn()
	t.add(Span{Name: name, StartNs: start, EndNs: t.now(), Parent: parent, Op: op})
}

// end closes a span that was added open, so that its children could
// name it as their parent.
func (t *Trace) end(idx int, endNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].EndNs = endNs
}

// adopt appends another trace's spans, moved onto this trace's clock.
func (t *Trace) adopt(o *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	shift, base := int64(o.epoch.Sub(t.epoch)), len(t.spans)
	for _, s := range o.spans {
		s.StartNs += shift
		s.EndNs += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// closureShare is the share of the time of the root spans called root
// that their direct children cover: how much of each op the trace
// accounts for.
func (t *Trace) closureShare(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots, children int64
	for _, s := range t.spans {
		switch {
		case s.Parent < 0 && s.Name == root:
			roots += s.EndNs - s.StartNs
		case s.Parent >= 0 && t.spans[s.Parent].Parent < 0 && t.spans[s.Parent].Name == root:
			children += s.EndNs - s.StartNs
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// write dumps the spans as JSON lines.
func (t *Trace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

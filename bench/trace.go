package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (-1 for a root).
// Times are offsets from the recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"request_id,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// recorder keeps a traced run's spans in memory; they are written out
// once, when the run ends.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its id.
func (r *recorder) add(name string, parent int, req string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// begin opens a span whose end is set by end; children may name it as
// their parent meanwhile.
func (r *recorder) begin(name string, parent int, req string) int {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := time.Duration(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[p.ID] = p.duration() - covered
	}
	return self
}

// writeTrace stores the run's spans as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

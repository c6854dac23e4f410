package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Gantt renders an exemplar's spans as the repo's ASCII schedule
// chart — the same renderer that draws the paper's Figure 1/8
// pipeline timelines, pointed at a live request. Spans sharing a name
// share a row (shard.io reads stack on one line, each segment
// labelled by its origin); rows order by first activity.
func (ex Exemplar) Gantt(width int) string {
	if len(ex.Spans) == 0 {
		return "(no spans)\n"
	}
	type row struct {
		name  string
		first int64
	}
	rows := map[string]*row{}
	order := []*row{}
	for _, s := range ex.Spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &row{name: s.Name, first: s.Start}
			rows[s.Name] = r
			order = append(order, r)
		}
		if s.Start < r.first {
			r.first = s.Start
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].first < order[j].first })
	epoch := order[0].first
	for _, r := range order {
		if r.first < epoch {
			epoch = r.first
		}
	}

	var g Gantt
	for _, r := range order {
		for _, s := range ex.Spans {
			if s.Name != r.name {
				continue
			}
			label := s.Detail
			if label == "" {
				label = s.Name
			}
			start, end := s.Start-epoch, s.End-epoch
			if end < start {
				end = start // clock skew across a stitched hop must not panic the renderer
			}
			g.Add(r.name, label, time.Duration(start), time.Duration(end))
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s model=%s", ex.TraceID, ex.Model)
	if ex.Node != "" {
		fmt.Fprintf(&b, " node=%s", ex.Node)
	}
	fmt.Fprintf(&b, " dur=%s", ex.Duration.Round(time.Microsecond))
	if ex.Err != "" {
		fmt.Fprintf(&b, " err=%q", ex.Err)
	}
	if ex.Dropped > 0 {
		fmt.Fprintf(&b, " dropped=%d", ex.Dropped)
	}
	b.WriteByte('\n')
	b.WriteString(g.Render(width))
	return b.String()
}

// StitchSpans grafts a downstream process's spans onto an upstream
// exemplar: every child span's parent index is offset past the
// upstream spans, and the child's process-root span (parent -1) is
// re-parented onto the upstream span named by the child's
// RemoteParent — producing the one merged trace a cluster request
// yields. Child spans whose remote parent is out of range hang off
// the upstream root.
func StitchSpans(up []Span, remoteParent SpanID, down []Span) []Span {
	off := SpanID(len(up))
	out := append(append([]Span(nil), up...), down...)
	for i := range down {
		s := &out[int(off)+i]
		if s.Parent < 0 {
			if remoteParent >= 0 && int(remoteParent) < len(up) {
				s.Parent = remoteParent
			} else {
				s.Parent = 0
			}
		} else {
			s.Parent += off
		}
	}
	return out
}

// Segment is one busy interval on a resource row.
type Segment struct {
	Label      string
	Start, End time.Duration
}

// Duration returns the segment length.
func (s Segment) Duration() time.Duration { return s.End - s.Start }

// Row is one resource (IO, Compute) with its busy segments in time
// order.
type Row struct {
	Name     string
	Segments []Segment
}

// Busy returns total busy time on the row.
func (r Row) Busy() time.Duration {
	var d time.Duration
	for _, s := range r.Segments {
		d += s.Duration()
	}
	return d
}

// Gantt is a set of rows sharing one time axis: the textual
// equivalent of the paper's Figure 1 and Figure 8 schedule
// illustrations. pipeline.Timeline draws simulated schedules on it,
// and Exemplar.Gantt draws live request timelines.
type Gantt struct {
	Rows []Row
}

// Add appends a segment to the named row, creating it if needed.
func (g *Gantt) Add(row, label string, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("obs: segment %q ends before it starts", label))
	}
	for i := range g.Rows {
		if g.Rows[i].Name == row {
			g.Rows[i].Segments = append(g.Rows[i].Segments, Segment{label, start, end})
			return
		}
	}
	g.Rows = append(g.Rows, Row{Name: row, Segments: []Segment{{label, start, end}}})
}

// Span returns the end of the latest segment.
func (g *Gantt) Span() time.Duration {
	var max time.Duration
	for _, r := range g.Rows {
		for _, s := range r.Segments {
			if s.End > max {
				max = s.End
			}
		}
	}
	return max
}

// Utilization returns the busy fraction of the named row over the full
// span (0 if the row or span is empty).
func (g *Gantt) Utilization(row string) float64 {
	span := g.Span()
	if span == 0 {
		return 0
	}
	for _, r := range g.Rows {
		if r.Name == row {
			return float64(r.Busy()) / float64(span)
		}
	}
	return 0
}

// Render draws the chart with the given character width for the time
// axis. Each row shows segment labels where they fit and '.' for idle
// time (pipeline bubbles).
func (g *Gantt) Render(width int) string {
	if width < 10 {
		width = 10
	}
	span := g.Span()
	if span == 0 {
		return "(empty timeline)\n"
	}
	nameW := 0
	for _, r := range g.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	scale := func(t time.Duration) int {
		c := int(float64(t) / float64(span) * float64(width))
		if c > width {
			c = width
		}
		return c
	}
	var b strings.Builder
	for _, r := range g.Rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, s := range r.Segments {
			lo, hi := scale(s.Start), scale(s.End)
			if hi == lo && hi < width {
				hi = lo + 1
			}
			for i := lo; i < hi; i++ {
				line[i] = '#'
			}
			// Overlay the label if it fits inside the segment.
			if len(s.Label) <= hi-lo {
				copy(line[lo:], s.Label)
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, r.Name, line)
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width, span.Round(time.Millisecond))
	return b.String()
}

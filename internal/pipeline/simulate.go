// Package pipeline executes and simulates STI's layerwise IO/compute
// pipeline (§3.1, §5.5): one IO job per layer streams that layer's
// selected shard versions from flash while earlier layers compute; a
// layer's computation starts once its own IO (and the previous layer's
// computation) has finished.
//
// Two engines live here:
//
//   - Simulate/SimulateSequential: deterministic analytic schedules
//     over a device profile's delay model. All paper-scale experiments
//     (Tables 5–7, Figures 1, 7, 8) run on these, mirroring how the
//     paper itself plans against recorded, replayed delays (§5.2).
//   - Engine: a real concurrent executor (goroutines + channels) that
//     reads shard payloads from a store, decompresses them, assembles
//     sub-layers and runs actual forward passes. Integration tests and
//     the examples run real (tiny) models through it.
package pipeline

import (
	"time"

	"sti/internal/device"
	"sti/internal/obs"
	"sti/internal/planner"
)

// LayerJob describes one pipeline stage pair: the bytes the layer
// streams from flash (0 when fully preloaded/in memory) and its
// computation delay.
type LayerJob struct {
	IOBytes int
	Compute time.Duration
}

// Timeline is a simulated schedule. Index i covers layer i.
type Timeline struct {
	IOStart, IOEnd     []time.Duration
	CompStart, CompEnd []time.Duration
}

// Total returns end-to-end latency.
func (t *Timeline) Total() time.Duration {
	if n := len(t.CompEnd); n > 0 {
		return t.CompEnd[n-1]
	}
	return 0
}

// ComputeStall returns the total time computation sat idle waiting for
// IO — the pipeline "bubbles" of Figure 1.
func (t *Timeline) ComputeStall() time.Duration {
	var stall time.Duration
	prevEnd := time.Duration(0)
	for i := range t.CompStart {
		stall += t.CompStart[i] - prevEnd
		prevEnd = t.CompEnd[i]
	}
	return stall
}

// IOBusy returns total IO transfer time.
func (t *Timeline) IOBusy() time.Duration {
	var busy time.Duration
	for i := range t.IOStart {
		busy += t.IOEnd[i] - t.IOStart[i]
	}
	return busy
}

// ComputeUtilization returns compute busy time over total latency.
func (t *Timeline) ComputeUtilization() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	var busy time.Duration
	for i := range t.CompStart {
		busy += t.CompEnd[i] - t.CompStart[i]
	}
	return float64(busy) / float64(total)
}

// IOUtilization returns IO busy time over total latency.
func (t *Timeline) IOUtilization() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return float64(t.IOBusy()) / float64(total)
}

// Gantt converts the timeline into a renderable chart.
func (t *Timeline) Gantt() *obs.Gantt {
	g := &obs.Gantt{}
	for i := range t.IOStart {
		if t.IOEnd[i] > t.IOStart[i] {
			g.Add("IO", itoa(i), t.IOStart[i], t.IOEnd[i])
		}
	}
	for i := range t.CompStart {
		g.Add("Compute", itoa(i), t.CompStart[i], t.CompEnd[i])
	}
	return g
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// Simulate computes the pipelined schedule: IO jobs run back to back in
// layer order; layer i's computation starts at
// max(IOEnd[i], CompEnd[i-1]).
func Simulate(dev *device.Profile, jobs []LayerJob) *Timeline {
	n := len(jobs)
	t := &Timeline{
		IOStart: make([]time.Duration, n), IOEnd: make([]time.Duration, n),
		CompStart: make([]time.Duration, n), CompEnd: make([]time.Duration, n),
	}
	ioCursor := time.Duration(0)
	compCursor := time.Duration(0)
	for i, j := range jobs {
		t.IOStart[i] = ioCursor
		t.IOEnd[i] = ioCursor + dev.TIO(j.IOBytes)
		ioCursor = t.IOEnd[i]
		start := compCursor
		if t.IOEnd[i] > start {
			start = t.IOEnd[i]
		}
		t.CompStart[i] = start
		t.CompEnd[i] = start + j.Compute
		compCursor = t.CompEnd[i]
	}
	return t
}

// SimulateSequential computes the load-before-execute schedule (the
// paper's Load&Exec baseline): all IO completes before any computation
// starts.
func SimulateSequential(dev *device.Profile, jobs []LayerJob) *Timeline {
	n := len(jobs)
	t := &Timeline{
		IOStart: make([]time.Duration, n), IOEnd: make([]time.Duration, n),
		CompStart: make([]time.Duration, n), CompEnd: make([]time.Duration, n),
	}
	cursor := time.Duration(0)
	for i, j := range jobs {
		t.IOStart[i] = cursor
		t.IOEnd[i] = cursor + dev.TIO(j.IOBytes)
		cursor = t.IOEnd[i]
	}
	for i, j := range jobs {
		t.CompStart[i] = cursor
		t.CompEnd[i] = cursor + j.Compute
		cursor = t.CompEnd[i]
	}
	return t
}

// PlanJobs converts an STI plan into simulator jobs under a sizer:
// per-layer streamed bytes and the profiled per-layer compute delay.
func PlanJobs(p *planner.Plan, sizer planner.Sizer) []LayerJob {
	jobs := make([]LayerJob, p.Depth)
	for l := 0; l < p.Depth; l++ {
		jobs[l] = LayerJob{IOBytes: p.LayerStreamBytes(l, sizer), Compute: p.TCompLayer}
	}
	return jobs
}

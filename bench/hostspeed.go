package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a small microVM on a shared machine whose speed
// moves by a third and stays there for minutes (README, "Host speed"): no
// window that fits the driver's time cap averages that out, and it moves
// every timing of the program by the same factor. So a run measures it: a
// fixed computation of the benchmark's own, every probeEvery, timed in
// thread CPU time — which waiting for a vCPU inside the guest does not
// touch, but everything the host does to a running vCPU does. A run's
// timings are reported at the reference speed, divided by
//
//	slowness = mean probe time over the same interval / probeReference
//
// and the measured values ride along as raw_* diagnostics. The probe costs
// under 1 % of one core and is the same on every commit.
const (
	probeEvery     = 20 * time.Millisecond
	probeReference = 130 * time.Microsecond // the probe in this host's quiet state
	probeRows      = 32
	probeDim       = 96
)

// hostMeter runs the probe on a thread of its own until closed.
type hostMeter struct {
	mu         sync.Mutex
	at         []time.Time
	took       []time.Duration
	stop, done chan struct{}
}

func startHostMeter() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *hostMeter) run() {
	defer close(m.done)
	// Thread CPU time is the locked thread's own: nothing else runs on it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	a := make([]float32, probeRows*probeDim)
	b := make([]float32, probeDim*probeDim)
	out := make([]float32, probeRows*probeDim)
	for i := range a {
		a[i] = float32(i%7)*0.1 + 0.01
	}
	for i := range b {
		b[i] = float32(i%5)*0.2 + 0.01
	}
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		start := threadCPUTime()
		probe(out, a, b)
		took := threadCPUTime() - start
		m.mu.Lock()
		m.at = append(m.at, time.Now())
		m.took = append(m.took, took)
		m.mu.Unlock()
	}
}

// probe is a small dense product in the loop order of the program's own
// kernels: scalar float32 multiply-adds over cache-resident operands, which
// is what the serving path spends its time on.
func probe(out, a, b []float32) {
	clear(out)
	for i := 0; i < probeRows; i++ {
		row := out[i*probeDim : (i+1)*probeDim]
		for k := 0; k < probeDim; k++ {
			av := a[i*probeDim+k]
			for j, bv := range b[k*probeDim : (k+1)*probeDim] {
				row[j] += av * bv
			}
		}
	}
}

// threadCPUTime reads CLOCK_THREAD_CPUTIME_ID; the syscall package has no
// wrapper for clock_gettime.
func threadCPUTime() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck — the clock id is a constant the kernel knows
	return time.Duration(ts.Nano())
}

func (m *hostMeter) close() {
	close(m.stop)
	<-m.done
}

// slowness is the host's slowness over [from, to] and the number of probes
// it was read from; 1 with no probes in the interval.
func (m *hostMeter) slowness(from, to time.Time) (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum time.Duration
	n := 0
	for i, at := range m.at {
		if !at.Before(from) && !at.After(to) {
			sum += m.took[i]
			n++
		}
	}
	if n == 0 {
		return 1, 0
	}
	return float64(sum) / float64(n) / float64(probeReference), n
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"
)

// wireRequest is the /v2/infer body the benchmark sends.
type wireRequest struct {
	Model        string      `json:"model"`
	Task         string      `json:"task,omitempty"`
	MaxNewTokens int         `json:"max_new_tokens,omitempty"`
	TargetMS     float64     `json:"target_ms,omitempty"`
	Priority     int         `json:"priority,omitempty"`
	Tokens       []int       `json:"tokens,omitempty"`
	Inputs       []wireInput `json:"inputs,omitempty"`
}

type wireInput struct {
	Tokens []int `json:"tokens"`
}

// wireResult is one classify result, or the fields of a generate stream's
// done event the benchmark reads.
type wireResult struct {
	Class      int       `json:"class"`
	Logits     []float32 `json:"logits"`
	Tokens     []int     `json:"tokens"` // generate: prompt + generated
	QueuedMS   float64   `json:"queued_ms"`
	TotalMS    float64   `json:"total_ms"`
	BytesRead  int64     `json:"bytes_read"`
	Batch      int       `json:"batch"`
	TierMS     float64   `json:"tier_ms"`
	Fidelity   float64   `json:"fidelity"`
	Downgraded bool      `json:"downgraded"`
	Error      string    `json:"error"`
}

// sample is one operation as the client saw it.
type sample struct {
	Req    request
	Client int
	Index  int  // position in the client's sequence
	Window bool // sent inside the measured window

	Due       time.Time // open loop: when it should have been sent; else == Sent
	Sent      time.Time
	FirstByte time.Time   // response headers
	TokenAt   []time.Time // generate: arrival of each SSE token event
	Done      time.Time

	Err          string       // transport, status or in-band failure; "" = succeeded
	Results      []wireResult // classify: one per input; generate: the done event
	StreamTokens []int        // generate: tokens as streamed, in order
}

func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// firstOutput is when the first token (generate) or the response
// (classify) reached the client.
func (s *sample) firstOutput() time.Time {
	if s.Req.Kind == kindGenerate && len(s.TokenAt) > 0 {
		return s.TokenAt[0]
	}
	return s.FirstByte
}

// doer performs operations for the load generator: over HTTP against the
// child (client), or in-process through the scheduler seam (traced run).
type doer interface {
	// do performs s.Req and fills the sample's times and outcome; due is
	// the moment latency counts from.
	do(ctx context.Context, s *sample, due time.Time)
	close()
}

// client sends operations over its own connection pool.
type client struct {
	base  string
	http  *http.Client
	pools pools
}

func newClient(base string, p pools, maxConns int) *client {
	return &client{base: base, pools: p, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) body(r request) (path string, body []byte) {
	if r.Kind == kindBudget {
		return "/v1/budget", []byte(fmt.Sprintf(`{"budget_bytes":%d}`, r.Budget))
	}
	w := wireRequest{Model: r.Model, TargetMS: r.TargetMS, Priority: r.Priority}
	switch {
	case r.Kind == kindGenerate:
		w.Task, w.MaxNewTokens, w.Tokens = "generate", r.MaxNew, c.pools.prompts[r.Inputs[0]]
	case len(r.Inputs) == 1:
		w.Tokens = c.pools.classify[r.Inputs[0]]
	default:
		for _, i := range r.Inputs {
			w.Inputs = append(w.Inputs, wireInput{Tokens: c.pools.classify[i]})
		}
	}
	data, err := json.Marshal(w)
	if err != nil {
		panic(err) // ints and strings always marshal
	}
	return "/v2/infer", data
}

func (c *client) do(ctx context.Context, s *sample, due time.Time) {
	path, body := c.body(s.Req)
	s.Due = due
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { s.FirstByte = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		s.Err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	s.Sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		s.Err, s.Done = err.Error(), time.Now()
		return
	}
	defer resp.Body.Close()
	switch {
	case strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream"):
		s.Err = readSSE(resp.Body, s)
	case s.Req.Kind == kindBudget:
		_, err = io.Copy(io.Discard, resp.Body)
		s.Err = errString(err)
	case len(s.Req.Inputs) > 1:
		var br struct {
			Results []wireResult `json:"results"`
		}
		s.Err = errString(json.NewDecoder(resp.Body).Decode(&br))
		s.Results = br.Results
		if s.Err == "" && len(br.Results) != len(s.Req.Inputs) {
			s.Err = fmt.Sprintf("%d results for %d inputs", len(br.Results), len(s.Req.Inputs))
		}
	default:
		var r wireResult
		s.Err = errString(json.NewDecoder(resp.Body).Decode(&r))
		s.Results = []wireResult{r}
	}
	s.Done = time.Now()
	if s.Err == "" && resp.StatusCode != http.StatusOK {
		s.Err = "status " + resp.Status
	}
	for _, r := range s.Results {
		if s.Err == "" && r.Error != "" {
			s.Err = r.Error
		}
	}
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

// readSSE consumes a generate stream: token events are stamped as they
// arrive, the done event becomes the sample's one result.
func readSSE(body io.Reader, s *sample) string {
	rd := bufio.NewReader(body)
	var event string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return "stream ended without a done event: " + err.Error()
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			switch event {
			case "token":
				var t struct {
					Token int `json:"token"`
				}
				if err := json.Unmarshal(data, &t); err != nil {
					return err.Error()
				}
				s.TokenAt = append(s.TokenAt, time.Now())
				s.StreamTokens = append(s.StreamTokens, t.Token)
			case "done":
				var r wireResult
				if err := json.Unmarshal(data, &r); err != nil {
					return err.Error()
				}
				s.Results = []wireResult{r}
				return ""
			case "error":
				return "stream error: " + string(data)
			}
		}
	}
}

// loadResult is everything one load phase observed.
type loadResult struct {
	Samples []*sample
	Start   time.Time // window open
	End     time.Time // last window operation done (never before Start+seconds)
	// Lateness is how late the generator ran: open loop, send time minus
	// due time; closed loop, the client's own gap between a response and
	// its next request.
	Lateness []time.Duration
}

// runLoad drives the workload through doers (newDoer is given the
// connections each may hold) for a window of the given length and returns
// every operation's sample. onWindow runs as the window opens, after
// warm-up, so counters read there cover only the window.
func runLoad(ctx context.Context, newDoer func(conns int) doer, w *workload, seed int64, window time.Duration, onWindow func()) *loadResult {
	if w.Rate > 0 {
		return runOpen(ctx, newDoer, w, seed, window, onWindow)
	}
	return runClosed(ctx, newDoer, w, seed, window, onWindow)
}

// runClosed runs one goroutine per client, each sending its next request
// only when the previous one has completed.
func runClosed(ctx context.Context, newDoer func(conns int) doer, w *workload, seed int64, window time.Duration, onWindow func()) *loadResult {
	n := w.conns()
	res := &loadResult{}
	perClient := make([][]*sample, n)
	lateness := make([][]time.Duration, n)
	var warm, done sync.WaitGroup
	open := make(chan struct{})
	warm.Add(n)
	done.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer done.Done()
			cl := newDoer(1)
			defer cl.close()
			next := clientGen(w, seed, c)
			var prevDone time.Time
			send := func(i int, inWindow bool) {
				s := &sample{Req: next(i), Client: c, Index: i, Window: inWindow}
				cl.do(ctx, s, time.Now())
				perClient[c] = append(perClient[c], s)
				if inWindow && !prevDone.IsZero() {
					lateness[c] = append(lateness[c], s.Sent.Sub(prevDone))
				}
				prevDone = s.Done
			}
			i := 0
			for ; i < w.Warmup && ctx.Err() == nil; i++ {
				send(i, false)
			}
			warm.Done()
			<-open
			for ; time.Since(res.Start) < window && ctx.Err() == nil; i++ {
				send(i, true)
			}
		}(c)
	}
	warm.Wait()
	onWindow()
	res.Start = time.Now()
	close(open)
	done.Wait()
	res.End = time.Now()
	for c := range perClient {
		res.Samples = append(res.Samples, perClient[c]...)
		res.Lateness = append(res.Lateness, lateness[c]...)
	}
	return res
}

// runOpen sends on a Poisson schedule whatever the server does; latency
// counts from each request's due time, so a stall is charged to every
// request it delays.
func runOpen(ctx context.Context, newDoer func(conns int) doer, w *workload, seed int64, window time.Duration, onWindow func()) *loadResult {
	offsets, open := schedule(w, seed, window)
	next := clientGen(w, seed, 0)
	cl := newDoer(64)
	defer cl.close()
	begin := time.Now()
	res := &loadResult{Start: begin.Add(open)}
	var wg sync.WaitGroup
	for i, offset := range offsets {
		due := begin.Add(offset)
		if i == w.Warmup {
			time.Sleep(time.Until(res.Start))
			onWindow()
		}
		time.Sleep(time.Until(due))
		if ctx.Err() != nil {
			break
		}
		s := &sample{Req: next(i), Index: i, Window: i >= w.Warmup}
		res.Samples = append(res.Samples, s)
		if s.Window {
			res.Lateness = append(res.Lateness, time.Since(due))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.do(ctx, s, due)
		}()
	}
	wg.Wait()
	res.End = time.Now()
	if end := res.Start.Add(window); res.End.Before(end) {
		res.End = end
	}
	return res
}

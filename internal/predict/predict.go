// Package predict is STI's predictive subsystem: it learns each
// model's arrival rate and shard-access order online and uses the
// predictions to hide cold-tier IO before requests need it.
//
// Two predictors cooperate per model. The arrival predictor keeps a
// request-rate EWMA per (model, SLO-class) with a short-horizon trend
// term; the sequence predictor is a tagged multi-history-length table
// in the TAGE style over the (tier, layer) shard-access stream emitted
// by the pipeline as plans execute. Their outputs drive two actuators,
// both strictly budget-subordinate and off the serving path:
//
//   - a prefetcher that pulls predicted-but-not-resident shard
//     payloads into the shared cache's second-class segment ahead of
//     the compute front, and
//   - a speculative tier warmer that stages the next ladder rung when
//     arrivals trend up.
//
// Observations enter through a bounded channel with non-blocking
// sends, so the serving path never waits on the predictor; a full
// queue drops observations (counted) rather than back-pressuring.
package predict

import (
	"sync"
	"sync/atomic"
	"time"

	"sti/internal/planner"
)

// TierPlan pairs a plan-cache tier with its resolved plan, as handed
// to the prefetcher by the Actuator.
type TierPlan struct {
	Target time.Duration
	Plan   *planner.Plan
}

// Actuator is the Predictor's outbound surface — implemented by the
// fleet, faked in tests. Every method is invoked with no Predictor
// lock held and must be budget-subordinate: a prefetch that does not
// fit the cache budget reports kept=false rather than evicting
// demand-retained state, and the warm path goes through the same
// staged machinery demand traffic uses.
type Actuator interface {
	// TierPlans returns the model's cached plan ladder.
	TierPlans(model string) []TierPlan
	// PrefetchShard pulls one shard payload into the shared cache's
	// second-class segment. kept reports whether the payload is
	// resident afterwards; an error aborts the current prefetch batch.
	PrefetchShard(model string, layer, slice, bits int) (kept bool, err error)
	// SpeculateWarm stages the next ladder rung's working set.
	SpeculateWarm(model string) error
}

// Options tunes the predictor. Zero values take the defaults below;
// WithDefaults returns the resolved form.
type Options struct {
	// Prefetch enables the shard prefetcher.
	Prefetch bool
	// Speculate enables speculative tier warming.
	Speculate bool
	// Interval is the actuation tick (default 25ms).
	Interval time.Duration
	// QueueLen bounds the observation channel (default 4096).
	QueueLen int
	// Lookahead is how many events past the access front the
	// prefetcher extrapolates (default 4, capped at 16).
	Lookahead int
	// MinConfidence gates extrapolation: predictions below this
	// confidence stop the lookahead walk (default 1, max 3).
	MinConfidence int
	// FastAlpha/SlowAlpha are the arrival EWMA coefficients
	// (defaults 0.5 and 0.1).
	FastAlpha float64
	SlowAlpha float64
	// WarmTrend is the minimum upward arrival trend, in requests per
	// second, that triggers a speculative warm (default 0.5).
	WarmTrend float64
	// WarmCooldown is the minimum spacing between speculative warms
	// of one model (default 1s).
	WarmCooldown time.Duration
}

// WithDefaults returns o with zero fields replaced by defaults.
func (o Options) WithDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 25 * time.Millisecond
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 4096
	}
	if o.Lookahead <= 0 {
		o.Lookahead = 4
	}
	if o.Lookahead > seqMaxLookahead {
		o.Lookahead = seqMaxLookahead
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 1
	}
	if o.MinConfidence > seqMaxConf {
		o.MinConfidence = seqMaxConf
	}
	if o.FastAlpha <= 0 || o.FastAlpha > 1 {
		o.FastAlpha = 0.5
	}
	if o.SlowAlpha <= 0 || o.SlowAlpha > 1 {
		o.SlowAlpha = 0.1
	}
	if o.WarmTrend <= 0 {
		o.WarmTrend = 0.5
	}
	if o.WarmCooldown <= 0 {
		o.WarmCooldown = time.Second
	}
	return o
}

// ModelStats snapshots one model's predictors and actuation counters.
type ModelStats struct {
	ArrivalRate      float64 `json:"arrival_rate_rps"`
	ArrivalTrend     float64 `json:"arrival_trend_rps"`
	Arrivals         uint64  `json:"arrivals"`
	Accesses         uint64  `json:"accesses"`
	SeqPredictions   uint64  `json:"seq_predictions"`
	SeqHits          uint64  `json:"seq_hits"`
	PrefetchIssued   uint64  `json:"prefetch_issued"`
	SpeculativeWarms uint64  `json:"speculative_warms"`
}

// observation is one event off the serving path: an admission
// (arrival=true; class is the SLO class) or a shard access (class is
// the plan tier, layer the shard row).
type observation struct {
	model   string
	class   time.Duration
	layer   int
	arrival bool
}

// modelState is one model's predictors plus actuation bookkeeping,
// guarded by Predictor.mu.
type modelState struct {
	seq *seqPredictor
	arr *arrivalPredictor

	accesses uint64
	accessed bool // access activity since the last tick

	rate, trend    float64
	prefetchIssued uint64
	warms          uint64
	lastWarm       time.Time
}

// actuation is one model's worklist for a tick, built under the mutex
// and executed with it released so predictor state is never locked
// across actuator calls.
type actuation struct {
	model  string
	events [seqMaxLookahead]Event
	n      int
	warm   bool
}

// Predictor trains per-model arrival and sequence predictors from a
// bounded observation stream and periodically actuates prefetch and
// warming through an Actuator. Observe methods are
// safe for concurrent use and never block.
type Predictor struct {
	act  Actuator
	opts Options

	obsCh   chan observation
	stop    chan struct{}
	done    chan struct{}
	dropped atomic.Uint64

	mu     sync.Mutex
	models map[string]*modelState
}

// New starts a Predictor actuating through act. Close releases it.
func New(act Actuator, opts Options) *Predictor {
	p := &Predictor{
		act:    act,
		opts:   opts.WithDefaults(),
		obsCh:  make(chan observation, opts.WithDefaults().QueueLen),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		models: make(map[string]*modelState),
	}
	go p.loop()
	return p
}

// Options returns the resolved (defaulted) options.
func (p *Predictor) Options() Options { return p.opts }

// Close stops the actuation loop and waits for it to exit. Observe
// calls after Close are safe no-ops: they fill or drop on the buffered
// channel, which is never closed.
func (p *Predictor) Close() {
	close(p.stop)
	<-p.done
}

// ObserveArrival records one admission of the model at the given SLO
// class. Non-blocking: a full observation queue drops the event.
func (p *Predictor) ObserveArrival(model string, class time.Duration) {
	select {
	case p.obsCh <- observation{model: model, class: class, arrival: true}:
	default:
		p.dropped.Add(1)
	}
}

// ObserveAccess records one shard-access event: the executing plan's
// tier and the layer whose IO just started. Non-blocking: a full
// observation queue drops the event.
func (p *Predictor) ObserveAccess(model string, tier time.Duration, layer int) {
	select {
	case p.obsCh <- observation{model: model, class: tier, layer: layer}:
	default:
		p.dropped.Add(1)
	}
}

// Dropped reports observations discarded because the queue was full.
func (p *Predictor) Dropped() uint64 { return p.dropped.Load() }

// Stats snapshots one model's predictor state.
func (p *Predictor) Stats(model string) (ModelStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.models[model]
	if !ok {
		return ModelStats{}, false
	}
	return ModelStats{
		ArrivalRate:      m.rate,
		ArrivalTrend:     m.trend,
		Arrivals:         m.arr.arrivals,
		Accesses:         m.accesses,
		SeqPredictions:   m.seq.predictions,
		SeqHits:          m.seq.hits,
		PrefetchIssued:   m.prefetchIssued,
		SpeculativeWarms: m.warms,
	}, true
}

func (p *Predictor) loop() {
	defer close(p.done)
	ticker := time.NewTicker(p.opts.Interval)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-p.stop:
			return
		case o := <-p.obsCh:
			p.ingest(o)
		case now := <-ticker.C:
			// Drain observations that raced the tick so actuation
			// sees the freshest access front.
			for drained := false; !drained; {
				select {
				case o := <-p.obsCh:
					p.ingest(o)
				default:
					drained = true
				}
			}
			p.actuate(now, now.Sub(last))
			last = now
		}
	}
}

func (p *Predictor) ingest(o observation) {
	p.mu.Lock()
	m := p.models[o.model]
	if m == nil {
		m = &modelState{seq: newSeqPredictor(), arr: newArrivalPredictor()}
		p.models[o.model] = m
	}
	if o.arrival {
		m.arr.observe(o.class)
	} else {
		m.seq.observe(Event{Tier: o.class, Layer: o.layer})
		m.accesses++
		m.accessed = true
	}
	p.mu.Unlock()
}

// actuate runs one tick: fold arrival EWMAs, build each model's
// worklist under the mutex, then execute it unlocked.
func (p *Predictor) actuate(now time.Time, dt time.Duration) {
	var work []actuation
	p.mu.Lock()
	for name, m := range p.models {
		m.rate, m.trend = m.arr.tick(dt, p.opts.FastAlpha, p.opts.SlowAlpha)
		a := actuation{model: name}
		if p.opts.Prefetch && m.accessed {
			a.n = m.seq.predictAhead(a.events[:p.opts.Lookahead], int8(p.opts.MinConfidence))
			m.accessed = false
		}
		if p.opts.Speculate && m.trend >= p.opts.WarmTrend && now.Sub(m.lastWarm) >= p.opts.WarmCooldown {
			a.warm = true
			m.lastWarm = now
		}
		if a.n > 0 || a.warm {
			work = append(work, a)
		}
	}
	p.mu.Unlock()

	for i := range work {
		w := &work[i]
		var issued, warms uint64
		if w.n > 0 {
			issued = p.prefetch(w.model, w.events[:w.n])
		}
		if w.warm {
			if err := p.act.SpeculateWarm(w.model); err == nil {
				warms = 1
			}
		}
		p.mu.Lock()
		if m := p.models[w.model]; m != nil {
			m.prefetchIssued += issued
			m.warms += warms
		}
		p.mu.Unlock()
	}
}

// prefetch resolves each predicted (tier, layer) event against the
// model's plan ladder and pulls that layer's streamed (non-preloaded)
// shard payloads toward the shared cache. Returns how many payloads
// the cache kept.
func (p *Predictor) prefetch(model string, events []Event) uint64 {
	plans := p.act.TierPlans(model)
	if len(plans) == 0 {
		return 0
	}
	var issued uint64
	for _, ev := range events {
		var plan *planner.Plan
		for i := range plans {
			if plans[i].Target == ev.Tier {
				plan = plans[i].Plan
				break
			}
		}
		if plan == nil || ev.Layer < 0 || ev.Layer >= len(plan.Slices) {
			continue
		}
		for j, slice := range plan.Slices[ev.Layer] {
			if plan.Preloaded[ev.Layer][j] {
				continue // resident in the replicas' preload buffers
			}
			kept, err := p.act.PrefetchShard(model, ev.Layer, slice, plan.Bits[ev.Layer][j])
			if err != nil {
				return issued
			}
			if kept {
				issued++
			}
		}
	}
	return issued
}

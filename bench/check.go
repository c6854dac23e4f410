package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sti"
)

// reference answers "what must the server have returned": in-process
// fleets configured like the child, served one request at a time. Batched,
// replicated and continuously batched serving are all specified to be
// byte-identical to this single stream. A plan — and so an output — depends
// on the per-replica preload grant, so there is one fleet per variant: every
// budget the workload sets, at every replica count an elastic pool may have
// drained to.
type reference struct {
	w        *workload
	pools    pools
	storeDir func(modelSpec) string

	mu     sync.Mutex
	fleets map[variant]*sti.Fleet
	cache  map[refKey]refValue
}

type variant struct {
	budget   int64
	replicas int
}

type refKey struct {
	variant
	model  string
	kind   reqKind
	input  int
	tierMS float64
	maxNew int
}

type refValue struct {
	logits []float32
	tokens []int
	err    error
}

// newFleet builds a fleet the way cmd/sti-serve does from the workload's
// pinned flags. cacheBytes only sizes the shared payload cache, which
// changes IO, never outputs.
func newFleet(w *workload, v variant, storeDir func(modelSpec) string, cacheBytes int64) (*sti.Fleet, error) {
	f := sti.NewFleet(v.budget)
	for _, m := range w.Models {
		sys, err := sti.Load(storeDir(m), sti.Odroid(), 0)
		if err != nil {
			return nil, err
		}
		if err := f.Add(m.Name, sys, defaultTarget, m.Weight); err != nil {
			return nil, err
		}
		if err := f.SetReplicas(m.Name, v.replicas); err != nil {
			return nil, err
		}
		if err := f.SetSharedCacheRetain(m.Name, cacheBytes); err != nil {
			return nil, err
		}
	}
	return f, f.Replan()
}

func newReference(w *workload, p pools, storeDir func(modelSpec) string) *reference {
	return &reference{w: w, pools: p, storeDir: storeDir,
		fleets: make(map[variant]*sti.Fleet), cache: make(map[refKey]refValue)}
}

// variants lists every fleet configuration a response may have been
// served under, the pinned one first.
func (r *reference) variants() []variant {
	var vs []variant
	for n := r.w.Replicas; n >= 1; n-- {
		for _, b := range r.w.Budgets {
			vs = append(vs, variant{b, n})
		}
	}
	return vs
}

// fleet returns the variant's fleet, building it on first use. Building
// reads the store, so it happens outside the lock; two callers racing for
// one variant both build and the first to finish is kept.
func (r *reference) fleet(v variant) (*sti.Fleet, error) {
	r.mu.Lock()
	f, ok := r.fleets[v]
	r.mu.Unlock()
	if ok {
		return f, nil
	}
	// A cache large enough for every shard version keeps reference
	// computation off the disk.
	f, err := newFleet(r.w, v, r.storeDir, 256<<20)
	if err != nil {
		return nil, fmt.Errorf("bench: reference fleet %+v: %w", v, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.fleets[v]; ok {
		return first, nil
	}
	r.fleets[v] = f
	return f, nil
}

func (r *reference) compute(k refKey) refValue {
	req := sti.Request{TargetLatency: time.Duration(k.tierMS * float64(time.Millisecond))}
	if k.kind == kindGenerate {
		req.Task, req.Tokens, req.MaxNewTokens = sti.TaskGenerate, r.pools.prompts[k.input], k.maxNew
	} else {
		req.Task, req.Tokens = sti.TaskClassify, r.pools.classify[k.input]
	}
	f, err := r.fleet(k.variant)
	if err != nil {
		return refValue{err: err}
	}
	resp, err := f.Serve(context.Background(), k.model, req)
	if err != nil {
		return refValue{err: err}
	}
	if resp.Tier == nil || resp.Tier.Target != req.TargetLatency {
		return refValue{err: fmt.Errorf("reference resolved tier %v for reported tier_ms %v", resp.Tier, k.tierMS)}
	}
	return refValue{logits: resp.Logits, tokens: resp.GeneratedTokens}
}

// prefetch computes the references for keys in parallel.
func (r *reference) prefetch(keys []refKey) {
	work := make(chan refKey)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				v := r.compute(k)
				r.mu.Lock()
				r.cache[k] = v
				r.mu.Unlock()
			}
		}()
	}
	queued := make(map[refKey]bool)
	for _, k := range keys {
		r.mu.Lock()
		_, done := r.cache[k]
		r.mu.Unlock()
		if !done && !queued[k] {
			queued[k] = true
			work <- k
		}
	}
	close(work)
	wg.Wait()
}

func (r *reference) get(k refKey) refValue {
	r.mu.Lock()
	v, ok := r.cache[k]
	r.mu.Unlock()
	if !ok {
		v = r.compute(k)
		r.mu.Lock()
		r.cache[k] = v
		r.mu.Unlock()
	}
	return v
}

// keys lists the references one successful sample needs under a variant.
func (r *reference) keys(s *sample, v variant) []refKey {
	var ks []refKey
	for i, res := range s.Results {
		ks = append(ks, refKey{variant: v, model: s.Req.Model, kind: s.Req.Kind,
			input: s.Req.Inputs[i], tierMS: res.TierMS, maxNew: s.Req.MaxNew})
	}
	return ks
}

// matches reports why a sample's outputs differ from the reference under
// one variant, "" when they are equal.
func (r *reference) matches(s *sample, v variant) string {
	for i, k := range r.keys(s, v) {
		ref, res := r.get(k), s.Results[i]
		if ref.err != nil {
			return ref.err.Error()
		}
		if s.Req.Kind == kindGenerate {
			prompt := len(r.pools.prompts[k.input])
			if !equalInts(res.Tokens, ref.tokens) {
				return fmt.Sprintf("generated %v, reference %v", res.Tokens, ref.tokens)
			}
			if len(res.Tokens) < prompt || !equalInts(s.StreamTokens, res.Tokens[prompt:]) {
				return fmt.Sprintf("streamed tokens %v differ from the done event's %v", s.StreamTokens, res.Tokens)
			}
			continue
		}
		if len(res.Logits) != len(ref.logits) {
			return fmt.Sprintf("%d logits, reference %d", len(res.Logits), len(ref.logits))
		}
		best := 0
		for j, v := range ref.logits {
			if res.Logits[j] != v {
				return fmt.Sprintf("input %d logits %v, reference %v", i, res.Logits, ref.logits)
			}
			if v > ref.logits[best] {
				best = j
			}
		}
		if res.Class != best {
			return fmt.Sprintf("input %d class %d, reference %d", i, res.Class, best)
		}
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check compares every successful sample with the reference at the
// tier_ms it reports and returns why each wrong one is wrong. Each sample
// is first held to the pinned configuration at the budget in force when it
// ran (known exactly: a workload that changes the budget has one client);
// one that differs is then tried under the remaining variants, and counts
// as wrong only if it matches none.
func (r *reference) check(samples []*sample) map[*sample]string {
	current := variant{r.w.Budgets[0], r.w.Replicas}
	expected := make(map[*sample]variant, len(samples))
	var pending []*sample
	for _, s := range samples {
		switch {
		case s.Err != "":
		case s.Req.Kind == kindBudget:
			current.budget = s.Req.Budget
		default:
			expected[s] = current
			pending = append(pending, s)
		}
	}
	wrong := make(map[*sample]string)
	// Pass 0 uses each sample's expected variant; later passes one fixed
	// variant each, over the samples still unmatched.
	for pass, vs := 0, r.variants(); len(pending) > 0 && pass <= len(vs); pass++ {
		at := func(s *sample) variant {
			if pass == 0 {
				return expected[s]
			}
			return vs[pass-1]
		}
		var keys []refKey
		for _, s := range pending {
			keys = append(keys, r.keys(s, at(s))...)
		}
		r.prefetch(keys)
		var still []*sample
		for _, s := range pending {
			why := r.matches(s, at(s))
			if why == "" {
				delete(wrong, s)
				continue
			}
			if pass == 0 {
				wrong[s] = why // reported against the configuration it should have had
			}
			still = append(still, s)
		}
		pending = still
	}
	return wrong
}

// gateFires proves the gate is live on this run's own data: a copy of one
// correct response with a single logit (or token) changed must be
// reported wrong.
func (r *reference) gateFires(samples []*sample) error {
	for _, s := range samples {
		if s.Err != "" || s.Req.Kind == kindBudget || len(r.check([]*sample{s})) != 0 {
			continue
		}
		bad := *s
		bad.Results = append([]wireResult(nil), s.Results...)
		res := &bad.Results[0]
		if s.Req.Kind == kindGenerate {
			res.Tokens = append([]int(nil), res.Tokens...)
			res.Tokens[len(res.Tokens)-1]++
		} else {
			res.Logits = append([]float32(nil), res.Logits...)
			res.Logits[0] += 1e-3
		}
		if len(r.check([]*sample{&bad})) == 0 {
			return fmt.Errorf("bench: correctness gate accepted a corrupted %s response", s.Req.Kind)
		}
		return nil
	}
	return fmt.Errorf("bench: no correct response to test the correctness gate with")
}

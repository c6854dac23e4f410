package sti

import (
	"errors"
	"fmt"
	"time"

	"sti/internal/planner"
	"sti/internal/predict"
)

// errFleetBusy reports that a predictive actuation was skipped because
// a writer held the fleet. Prediction is advisory: a skipped actuation
// costs only a missed optimization, never correctness.
var errFleetBusy = errors.New("sti: fleet busy; speculative actuation skipped")

// EnablePrediction starts the predictive subsystem (internal/predict)
// over every managed model: arrival observations flow in from the
// scheduler via ObserveArrival, shard-access observations from every
// replica engine via per-layer taps installed here (and on replicas
// spawned later), and the predictor's actuators prefetch shards into
// each model's shared cache and speculatively warm downgrade rungs.
// All actuation is
// budget-subordinate and off the serving path. Returns an error if
// prediction is already enabled.
func (f *Fleet) EnablePrediction(opts PredictOptions) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.predictor.Load() != nil {
		return fmt.Errorf("sti: prediction already enabled")
	}
	f.predictor.Store(predict.New(&fleetActuator{f: f}, opts))
	for name, e := range f.entries {
		obs := f.accessObserver(name)
		for _, eng := range e.pool.Engines() {
			eng.SetAccessObserver(obs)
		}
	}
	return nil
}

// StopPrediction stops the predictive subsystem and detaches the
// engine access taps. Safe to call when prediction is not enabled.
func (f *Fleet) StopPrediction() {
	f.mu.Lock()
	p := f.predictor.Swap(nil)
	for _, e := range f.entries {
		for _, eng := range e.pool.Engines() {
			eng.SetAccessObserver(nil)
		}
	}
	f.mu.Unlock()
	// Close outside the lock: it waits for the actuation loop, which
	// may itself be try-locking the fleet.
	if p != nil {
		p.Close()
	}
}

// ObserveArrival feeds one admission (model and SLO class) into the
// predictive subsystem. A lock-free no-op while prediction is disabled
// — safe on every enqueue.
func (f *Fleet) ObserveArrival(model string, class time.Duration) {
	if p := f.predictor.Load(); p != nil {
		p.ObserveArrival(model, class)
	}
}

// PredictStats snapshots a model's predictor state. ok is false while
// prediction is disabled or before the model's first observation.
func (f *Fleet) PredictStats(name string) (predict.ModelStats, bool) {
	if p := f.predictor.Load(); p != nil {
		return p.Stats(name)
	}
	return predict.ModelStats{}, false
}

// accessObserver builds the per-model closure replica engines invoke
// as each layer's IO starts. It indirects through the predictor
// pointer at call time, so a stopped predictor turns any tap still
// attached to an in-flight stream into a cheap no-op.
func (f *Fleet) accessObserver(name string) func(tier time.Duration, layer int) {
	return func(tier time.Duration, layer int) {
		if p := f.predictor.Load(); p != nil {
			p.ObserveAccess(name, tier, layer)
		}
	}
}

// fleetActuator adapts the fleet to predict.Actuator. Every method
// runs on the predictor's actuation loop, never the serving path, and
// none may block on the fleet: lookups try-lock and give up while a
// writer (replan, scale, remove) holds it.
type fleetActuator struct{ f *Fleet }

// TierPlans snapshots the model's cached plan ladder. Plans are
// immutable once planned, so the slice stays valid after the lock is
// released.
func (a *fleetActuator) TierPlans(model string) []predict.TierPlan {
	if !a.f.mu.TryRLock() {
		return nil
	}
	defer a.f.mu.RUnlock()
	e, ok := a.f.entries[model]
	if !ok || e.Plan == nil {
		return nil
	}
	targets, plans := e.cache.Entries()
	tiers := make([]predict.TierPlan, len(targets))
	for i := range targets {
		tiers[i] = predict.TierPlan{Target: targets[i], Plan: plans[i]}
	}
	return tiers
}

// PrefetchShard pulls one shard payload into the model's shared cache
// second-class segment. The flash read happens after the fleet lock is
// released — the shared cache is internally synchronized and
// budget-subordinate (it evicts only other prefetched entries, never
// demand-retained payloads, and reports kept=false when the payload
// does not fit).
func (a *fleetActuator) PrefetchShard(model string, layer, slice, bits int) (bool, error) {
	if !a.f.mu.TryRLock() {
		return false, errFleetBusy
	}
	e, ok := a.f.entries[model]
	a.f.mu.RUnlock()
	if !ok {
		return false, fmt.Errorf("sti: fleet has no model %q", model)
	}
	return e.shared.PrefetchShardPayload(layer, slice, bits)
}

// SpeculateWarm stages the rung below the model's default tier — the
// one congestion downgrades land on — ahead of need. Its streamed
// shards are pulled into the shared cache's second-class segment
// (stopping the moment the budget is full), and the pool's warm set is
// re-asserted through the existing WarmSet machinery when the fleet is
// uncontended, trimming any stale extra-tier preload bytes back to the
// live ladder before the downgrade burst arrives.
func (a *fleetActuator) SpeculateWarm(model string) error {
	if !a.f.mu.TryRLock() {
		return errFleetBusy
	}
	e, ok := a.f.entries[model]
	var plan *Plan
	if ok && e.Plan != nil {
		if _, below, okBelow := e.cache.ResolveBelow(planner.TierKey(e.Target)); okBelow {
			plan = below
		}
	}
	a.f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("sti: fleet has no model %q", model)
	}
	if plan != nil {
		for l := range plan.Slices {
			for j, s := range plan.Slices[l] {
				if plan.Preloaded[l][j] {
					continue
				}
				kept, err := e.shared.PrefetchShardPayload(l, s, plan.Bits[l][j])
				if err != nil {
					return err
				}
				if !kept {
					return nil // cache budget full — strictly subordinate
				}
			}
		}
	}
	if a.f.mu.TryLock() {
		defer a.f.mu.Unlock()
		if a.f.entries[model] != e {
			return nil // model removed or replaced while unlocked
		}
		//sti:lockok quiesce-and-swap: the speculative re-warm runs only when the fleet is uncontended (TryLock) and at WarmCooldown pace; holding the write lock across the warm is the same barrier every ladder commit uses
		return e.pool.Warm(e.cache.Plans())
	}
	return nil
}

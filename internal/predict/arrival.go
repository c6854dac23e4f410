package predict

import "time"

// classRate tracks one (model, SLO-class) arrival stream with a pair
// of EWMAs: a fast one following the short-horizon rate and a slow one
// following the baseline. Their difference is the trend term — positive
// while load ramps, negative while it drains, near zero at steady
// state. Both start at zero, so a fresh stream reads as an upward
// trend until the slow average catches up, which is exactly when
// speculative warming pays off.
type classRate struct {
	pending uint64 // arrivals accumulated since the last tick
	fast    float64
	slow    float64
}

// arrivalPredictor aggregates one model's admission stream, bucketed
// by SLO class so a burst of tight-deadline traffic is not averaged
// away by a steady background of relaxed requests. It is not safe for
// concurrent use; the Predictor serializes access under its mutex.
type arrivalPredictor struct {
	classes  map[time.Duration]*classRate
	arrivals uint64
}

func newArrivalPredictor() *arrivalPredictor {
	return &arrivalPredictor{classes: make(map[time.Duration]*classRate)}
}

// observe records one admission in the class's pending count.
func (a *arrivalPredictor) observe(class time.Duration) {
	c := a.classes[class]
	if c == nil {
		c = &classRate{}
		a.classes[class] = c
	}
	c.pending++
	a.arrivals++
}

// tick folds the interval's pending arrivals into each class's EWMAs
// and returns the model-level rate (sum of fast averages) and trend
// (sum of fast−slow), both in requests per second.
func (a *arrivalPredictor) tick(dt time.Duration, fastAlpha, slowAlpha float64) (rate, trend float64) {
	sec := dt.Seconds()
	if sec <= 0 {
		for _, c := range a.classes {
			rate += c.fast
			trend += c.fast - c.slow
		}
		return rate, trend
	}
	for _, c := range a.classes {
		r := float64(c.pending) / sec
		c.pending = 0
		c.fast += fastAlpha * (r - c.fast)
		c.slow += slowAlpha * (r - c.slow)
		rate += c.fast
		trend += c.fast - c.slow
	}
	return rate, trend
}

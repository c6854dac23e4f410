package predict

import (
	"math/rand"
	"testing"
	"time"
)

// golden pattern with an ambiguous bigram: A's successor alternates
// between B and C depending on context, so the base table alone cannot
// converge — only the tagged history tables can.
func goldenPattern() []Event {
	a := Event{Tier: 100 * time.Millisecond, Layer: 0}
	b := Event{Tier: 100 * time.Millisecond, Layer: 1}
	c := Event{Tier: 200 * time.Millisecond, Layer: 0}
	return []Event{a, b, a, c}
}

// TestSeqConvergesOnGoldenStride: after a bounded training run on a
// repeating (tier, layer) stride, the predictor's one-step-ahead
// prediction matches the stream almost always — including at the
// context-dependent position a bigram cannot learn.
func TestSeqConvergesOnGoldenStride(t *testing.T) {
	pat := goldenPattern()
	s := newSeqPredictor()

	const train = 100
	for i := 0; i < train; i++ {
		s.observe(pat[i%len(pat)])
	}

	var dst [1]Event
	correct, total := 0, 0
	for i := train; i < train+100; i++ {
		want := pat[i%len(pat)]
		if n := s.predictAhead(dst[:], 1); n == 1 {
			total++
			if dst[0] == want {
				correct++
			}
		}
		s.observe(want)
	}
	if total < 90 {
		t.Fatalf("predictor confident on only %d/100 steps of a converged stride", total)
	}
	if correct < 90 {
		t.Fatalf("predictor correct on %d/%d confident steps, want >= 90", correct, total)
	}

	// Multi-step lookahead walks the whole cycle.
	var ahead [4]Event
	n := s.predictAhead(ahead[:], 1)
	if n != 4 {
		t.Fatalf("lookahead returned %d events, want 4", n)
	}
	// The last observed event was pat[(train+100-1)%4]; the walk must
	// continue the cycle from there.
	start := (train + 100) % len(pat)
	for k := 0; k < n; k++ {
		if want := pat[(start+k)%len(pat)]; ahead[k] != want {
			t.Fatalf("lookahead[%d] = %+v, want %+v", k, ahead[k], want)
		}
	}
}

// TestSeqColdAndRandomDegradeToNoPrefetch: an untrained predictor
// yields no predictions at all, and a uniformly random stream yields
// (almost) none — the confidence gate turns an unlearnable access
// pattern into no-prefetch rather than wasted IO.
func TestSeqColdAndRandomDegradeToNoPrefetch(t *testing.T) {
	var dst [4]Event

	cold := newSeqPredictor()
	if n := cold.predictAhead(dst[:], 1); n != 0 {
		t.Fatalf("cold predictor predicted %d events, want 0", n)
	}

	rng := rand.New(rand.NewSource(42))
	s := newSeqPredictor()
	for i := 0; i < 500; i++ {
		s.observe(Event{Tier: 100 * time.Millisecond, Layer: rng.Intn(16)})
	}
	// Across a window of further random observations, the confident
	// lookahead should stay near-empty.
	predicted := 0
	for i := 0; i < 100; i++ {
		predicted += s.predictAhead(dst[:], 1)
		s.observe(Event{Tier: 100 * time.Millisecond, Layer: rng.Intn(16)})
	}
	if predicted > 40 {
		t.Fatalf("random stream produced %d confident lookahead events over 100 steps (4 per step possible); the confidence gate is not degrading to no-prefetch", predicted)
	}
	// And the golden stream's accuracy is unreachable here: confident
	// predictions on random data are mostly wrong, so the self-monitor
	// exposes the difference.
	if s.predictions > 0 && float64(s.hits)/float64(s.predictions) > 0.5 {
		t.Fatalf("random stream self-accuracy %d/%d suspiciously high", s.hits, s.predictions)
	}
}

// TestSeqAlphabetBounded: events beyond the alphabet cap are dropped
// instead of growing the id table without bound.
func TestSeqAlphabetBounded(t *testing.T) {
	s := newSeqPredictor()
	for i := 0; i < 2*seqMaxEvents; i++ {
		s.observe(Event{Tier: time.Duration(i) * time.Millisecond, Layer: i})
	}
	if len(s.events) != seqMaxEvents || len(s.ids) != seqMaxEvents {
		t.Fatalf("alphabet grew to %d/%d, want capped at %d", len(s.events), len(s.ids), seqMaxEvents)
	}
}

// TestArrivalTrend: a burst from idle shows a positive trend, a steady
// rate decays it back toward zero, and going idle turns it negative.
func TestArrivalTrend(t *testing.T) {
	a := newArrivalPredictor()
	tick := func(n int) (rate, trend float64) {
		for i := 0; i < n; i++ {
			a.observe(100 * time.Millisecond)
		}
		return a.tick(100*time.Millisecond, 0.5, 0.1)
	}

	_, trend := tick(10)
	if trend <= 0 {
		t.Fatalf("burst from idle: trend %v, want > 0", trend)
	}
	var rate float64
	for i := 0; i < 50; i++ {
		rate, trend = tick(10)
	}
	if trend > 10 {
		t.Fatalf("steady load: trend %v did not decay toward 0 (rate %v)", trend, rate)
	}
	if rate < 50 {
		t.Fatalf("steady 100 rps load: fast EWMA says %v", rate)
	}
	_, trend = tick(0)
	if trend >= 0 {
		t.Fatalf("idle after load: trend %v, want < 0", trend)
	}
}

package cluster

import (
	"fmt"
	"testing"
)

func testRing(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingPlaceIsDeterministicAndReplicated(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := testRing(t, nodes)
	r2 := testRing(t, []string{"d", "c", "b", "a"})
	for i := 0; i < 50; i++ {
		model := fmt.Sprintf("model-%d", i)
		p1, p2 := r.Place(model), r2.Place(model)
		if len(p1) != 2 {
			t.Fatalf("%s placed on %v, want 2 distinct nodes", model, p1)
		}
		if p1[0] == p1[1] {
			t.Fatalf("%s placed twice on %s", model, p1[0])
		}
		if fmt.Sprint(p1) != fmt.Sprint(p2) {
			t.Fatalf("placement depends on input order: %v vs %v", p1, p2)
		}
	}
}

func TestRingSpreadsModels(t *testing.T) {
	r := testRing(t, []string{"a", "b", "c", "d"})
	byNode := map[string]int{}
	const models = 400
	for i := 0; i < models; i++ {
		byNode[r.Place(fmt.Sprintf("model-%d", i))[0]]++
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		// Perfect balance is 100 each; consistent hashing with 64
		// vnodes should stay within a loose 3× band.
		if byNode[n] < models/12 || byNode[n] > models/2 {
			t.Fatalf("node %s is primary for %d of %d models: %v", n, byNode[n], models, byNode)
		}
	}
}

func TestRingRebalancesOnUnavailability(t *testing.T) {
	r := testRing(t, []string{"a", "b", "c"})
	var model string
	for i := 0; ; i++ {
		model = fmt.Sprintf("model-%d", i)
		if r.Place(model)[0] == "a" {
			break
		}
	}
	before := r.Place(model)
	if !r.SetAvailable("a", false) {
		t.Fatal("SetAvailable reported no change")
	}
	after := r.Place(model)
	if len(after) == 0 || after[0] == "a" {
		t.Fatalf("placement %v still routes to the down node", after)
	}
	// The surviving holder order is the same circle walk minus "a".
	if after[0] != before[1] {
		t.Fatalf("failover went to %s, want the standing replica %s", after[0], before[1])
	}
	r.SetAvailable("a", true)
	if got := r.Place(model); got[0] != "a" {
		t.Fatalf("placement %v did not return home after recovery", got)
	}

	// All nodes down: no placement rather than a panic.
	for _, n := range []string{"a", "b", "c"} {
		r.SetAvailable(n, false)
	}
	if got := r.Place(model); len(got) != 0 {
		t.Fatalf("placement %v with every node down", got)
	}
}

// TestRingRebalanceHysteresis: a sustained load imbalance moves a
// model's traffic to the lighter holder — but only after
// rebalanceTicks consecutive observations, and it moves back just as
// reluctantly. A single spike never flaps placement.
func TestRingRebalanceHysteresis(t *testing.T) {
	r := testRing(t, []string{"a", "b", "c"})
	model := "m"
	holders := r.Place(model)
	primary, second := holders[0], holders[1]
	loads := map[string]int{primary: 0, second: 0}
	load := func(n string) int { return loads[n] }

	if got, _ := r.Pick(model, load); got != primary {
		t.Fatalf("balanced pick %s, want primary %s", got, primary)
	}

	// One spike: not enough.
	loads[primary], loads[second] = 20, 1
	if got, _ := r.Pick(model, load); got != primary {
		t.Fatal("a single imbalanced observation moved traffic")
	}
	// A recovery resets the streak.
	loads[primary] = 1
	r.Pick(model, load)
	loads[primary] = 20
	r.Pick(model, load)
	if got, _ := r.Pick(model, load); got != primary {
		t.Fatal("streak survived a balanced observation")
	}

	// Sustained imbalance: the third consecutive observation flips the
	// override (the two picks above were ticks 1 and 2).
	got, rest := r.Pick(model, load)
	if got != second {
		t.Fatalf("after sustained imbalance pick=%s, want %s", got, second)
	}
	if len(rest) != 1 || rest[0] != primary {
		t.Fatalf("retry candidates %v, want [%s]", rest, primary)
	}
	if r.Rebalances() != 1 {
		t.Fatalf("Rebalances=%d, want 1", r.Rebalances())
	}

	// Override sticks while it helps...
	loads[primary], loads[second] = 3, 2
	for i := 0; i < 5; i++ {
		if got, _ := r.Pick(model, load); got != second {
			t.Fatal("override dropped while still the lighter choice")
		}
	}
	// ...and clears only after the inverse imbalance sustains for the
	// same three consecutive observations.
	loads[primary], loads[second] = 0, 10
	r.Pick(model, load)
	if got, _ := r.Pick(model, load); got != second {
		t.Fatal("override cleared one tick early")
	}
	if got, _ := r.Pick(model, load); got != primary {
		t.Fatal("override survived sustained inversion")
	}

	// Membership changes clear overrides outright.
	loads[primary], loads[second] = 20, 0
	for i := 0; i < 4; i++ {
		r.Pick(model, load)
	}
	if got, _ := r.Pick(model, load); got != second {
		t.Fatal("override did not re-engage")
	}
	r.SetAvailable("c", false)
	if got, _ := r.Pick(model, load); got != primary && got != second {
		t.Fatalf("pick %s after membership change", got)
	}
	r.SetAvailable("c", true)
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Fatal("empty node name accepted")
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:1234, b=https://h2:1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != (Peer{Name: "a", URL: "http://h1:1234"}) ||
		peers[1] != (Peer{Name: "b", URL: "https://h2:1"}) {
		t.Fatalf("peers %+v", peers)
	}
	for _, bad := range []string{"", "a", "a=", "=http://x", "a=notaurl", "a=http://x:1,a=http://y:2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// FuzzParsePeers: ParsePeers never panics, and every peer list it
// accepts builds a ring — so a -peers value that passes startup
// validation cannot fail later when the router or a node is built.
func FuzzParsePeers(f *testing.F) {
	for _, seed := range []string{
		"a=http://h1:1234, b=https://h2:1/",
		"a=http://x:1,a=http://y:2",
		"a=http://x:1,,b=http://x:1",
		"=http://x", "a=", "a=notaurl", " , ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		peers, err := ParsePeers(s)
		if err != nil {
			return
		}
		names := make([]string, len(peers))
		for i, p := range peers {
			names[i] = p.Name
		}
		if _, err := NewRing(names); err != nil {
			t.Fatalf("ParsePeers(%q) accepted %v, but NewRing rejects it: %v", s, peers, err)
		}
	})
}

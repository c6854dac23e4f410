// Package cluster turns N sti-serve processes into one serving
// surface: a consistent-hash Ring places models on nodes, a Router
// terminates /v2/infer (classify and SSE generate alike) and forwards
// each request to a node holding its model, and a Node exposes the
// donor side of the cluster's two-level shard cache plus the arrival
// observations the owning node's predictor trains on.
//
// The design extends the paper's elastic-pipelining discipline across
// machines: every cross-node interaction — peer cache fetches, health
// polls, arrival forwarding — is asynchronous with respect to serving
// locks. No network IO ever runs under a mutex; a slow peer can stall
// at most the single request (or single shard flight) that asked for
// it.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Placement constants. The router and every node build their own Ring
// over the same peer list, and a node's peer fetch asks Place which
// members hold a model, so these must agree across the cluster; as
// constants they cannot differ.
const (
	// virtualNodes is the number of ring points per node: more points
	// smooth the keyspace split at the cost of a larger sorted ring.
	virtualNodes = 64
	// replicationFactor is how many distinct nodes hold each model
	// (fewer when the cluster is smaller): the first is the model's
	// home, the rest serve retries, rebalanced load, and peer-cache
	// fetches.
	replicationFactor = 2
	// rebalanceFactor is the load ratio (most- vs least-loaded holder
	// of a model) that counts toward moving the model's traffic.
	rebalanceFactor = 2.0
	// rebalanceTicks is how many consecutive imbalanced observations
	// must accumulate before traffic actually moves — the hysteresis
	// that keeps one burst from flapping placement.
	rebalanceTicks = 3
	// minLoadGap is the absolute in-flight difference below which
	// imbalance is ignored regardless of ratio: 2 vs 1 in-flight is
	// noise, 40 vs 19 is not.
	minLoadGap = 4
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// balance is one model's rebalance-hysteresis state.
type balance struct {
	override string // non-empty: route this model's traffic here instead of its primary
	hot      int    // consecutive observations of primary overload
	calm     int    // consecutive observations where the override stopped helping
}

// Ring is a consistent-hash placement of models over a static peer
// set. Placement is deterministic given the membership and each node's
// availability; on top of that, Pick applies load-aware rebalancing
// with hysteresis — a model's traffic moves to a less-loaded holder
// only after rebalanceTicks consecutive imbalanced observations, and
// moves back just as reluctantly, so placement never flaps on a single
// burst. All methods are safe for concurrent use.
type Ring struct {
	mu       sync.Mutex
	nodes    []string        // all members, sorted
	down     map[string]bool // unavailable (draining or unreachable) members
	points   []ringPoint     // sorted hash circle over all members
	balances map[string]*balance
	moves    uint64 // rebalance overrides applied (stats)
}

// NewRing builds a ring over the given node names. Names must be
// non-empty and unique; at least one node is required.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	r := &Ring{
		nodes:    append([]string(nil), nodes...),
		down:     make(map[string]bool),
		balances: make(map[string]*balance),
	}
	sort.Strings(r.nodes)
	seen := make(map[string]bool, len(r.nodes))
	for _, n := range r.nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// hash64 is FNV-1a tightened with a 64-bit avalanche finalizer
// (murmur3's fmix64): plain FNV of short, similar strings — "a#1",
// "a#2", "model-7" — produces near-sequential hashes that clump the
// ring's virtual nodes into runs, skewing primaries badly. The
// finalizer diffuses every input bit across the word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Nodes returns every member, available or not, sorted.
func (r *Ring) Nodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.nodes...)
}

// SetAvailable marks one member routable or not (draining and
// unreachable nodes are unavailable). It reports whether the state
// changed; a change clears every rebalance override — the placement
// they corrected no longer exists.
func (r *Ring) SetAvailable(node string, ok bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down[node] == !ok {
		return false
	}
	if ok {
		delete(r.down, node)
	} else {
		r.down[node] = true
	}
	r.balances = make(map[string]*balance)
	return true
}

// Available reports whether a member is currently routable.
func (r *Ring) Available(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.down[node]
}

// Place returns the available nodes holding model, in preference
// order: the walk of the hash circle from the model's point, keeping
// the first replicationFactor distinct members and dropping the
// unavailable ones. Empty when every holder is down.
func (r *Ring) Place(model string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placeLocked(model)
}

func (r *Ring) placeLocked(model string) []string {
	h := hash64(model)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := make(map[string]bool, replicationFactor)
	for n := 0; n < len(r.points) && len(seen) < replicationFactor; n++ {
		p := r.points[(i+n)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if !r.down[p.node] {
			out = append(out, p.node)
		}
	}
	return out
}

// Pick chooses the node to route one request for model to, given the
// router's current per-node in-flight load, and returns the remaining
// holders as retry candidates. Each call is also one load observation
// for the model's hysteresis: when the preferred holder has carried
// rebalanceFactor× the load of the least-loaded holder (by at least
// minLoadGap) for rebalanceTicks consecutive calls, the model's
// traffic moves to that holder — and moves back only after the same
// sustained evidence that the override stopped being the lighter
// choice.
func (r *Ring) Pick(model string, load func(node string) int) (string, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cands := r.placeLocked(model)
	if len(cands) == 0 {
		return "", nil
	}
	primary := cands[0]
	if len(cands) > 1 && load != nil {
		primary = r.observeLocked(model, cands, load)
	}
	rest := make([]string, 0, len(cands)-1)
	for _, c := range cands {
		if c != primary {
			rest = append(rest, c)
		}
	}
	return primary, rest
}

// observeLocked advances one model's hysteresis state and resolves the
// node its traffic currently targets.
func (r *Ring) observeLocked(model string, cands []string, load func(string) int) string {
	st := r.balances[model]
	if st == nil {
		st = &balance{}
		r.balances[model] = st
	}
	primary := cands[0]
	least, leastLoad := primary, load(primary)
	for _, c := range cands[1:] {
		if l := load(c); l < leastLoad {
			least, leastLoad = c, l
		}
	}

	if st.override != "" {
		// Override active: confirm it is still a holder and still not
		// clearly worse than the natural primary.
		valid := false
		for _, c := range cands {
			if c == st.override {
				valid = true
			}
		}
		if !valid {
			st.override, st.calm = "", 0
			return primary
		}
		if load(st.override) >= load(primary)+minLoadGap {
			st.calm++
		} else {
			st.calm = 0
		}
		if st.calm >= rebalanceTicks {
			st.override, st.calm = "", 0
			return primary
		}
		return st.override
	}

	pl := load(primary)
	imbalanced := pl-leastLoad >= minLoadGap &&
		float64(pl) > rebalanceFactor*float64(leastLoad)
	if imbalanced && least != primary {
		st.hot++
		if st.hot >= rebalanceTicks {
			st.override, st.hot, st.calm = least, 0, 0
			r.moves++
			return least
		}
	} else {
		st.hot = 0
	}
	return primary
}

// Rebalances reports how many override moves the hysteresis has
// committed since the ring was built.
func (r *Ring) Rebalances() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moves
}

package httpserve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sti"
)

// TestConfigValidate covers every startup error Validate reports, one
// case each, and a configuration with several faults, which names them
// all in one joined error.
func TestConfigValidate(t *testing.T) {
	base := Config{
		Models: ModelSpecs{{Name: "m", Dir: "/s", Target: time.Second, Weight: 1}},
		Device: "odroid", Replicas: 1, Slack: 4, SharedCache: 1 << 20, Mode: "standalone",
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want []string // substrings of the error; none means valid
	}{
		{"standalone", func(c *Config) {}, nil},
		{"node", func(c *Config) { c.Mode, c.Node, c.Peers = "node", "a", "a=http://h:1" }, nil},
		{"router", func(c *Config) { c.Mode, c.Models, c.Peers = "router", nil, "a=http://h:1" }, nil},
		{"router ignores serving flags", func(c *Config) {
			c.Mode, c.Models, c.Peers, c.Replicas, c.Device = "router", nil, "a=http://h:1", 0, "x"
			c.Budget, c.Slack, c.SharedCache = -1, 0, -1
		}, nil},
		{"unknown mode", func(c *Config) { c.Mode = "mesh" }, []string{`unknown -mode "mesh"`}},
		{"node without -node", func(c *Config) { c.Mode, c.Peers = "node", "a=http://h:1" }, []string{"requires -node and -peers"}},
		{"node without -peers", func(c *Config) { c.Mode, c.Node = "node", "a" }, []string{"requires -node and -peers"}},
		{"node with bad -peers", func(c *Config) { c.Mode, c.Node, c.Peers = "node", "a", "a" }, []string{"-peers"}},
		{"standalone with -peers", func(c *Config) { c.Peers = "a=http://h:1" }, []string{"need -mode node or -mode router"}},
		{"standalone with -node", func(c *Config) { c.Node = "a" }, []string{"need -mode node or -mode router"}},
		{"router without -peers", func(c *Config) { c.Mode, c.Models = "router", nil }, []string{"-peers"}},
		{"router with -model", func(c *Config) { c.Mode, c.Peers = "router", "a=http://h:1" }, []string{"takes no -model"}},
		{"no model", func(c *Config) { c.Models = nil }, []string{"at least one -model"}},
		{"no replica", func(c *Config) { c.Replicas = 0 }, []string{"-replicas 0"}},
		{"negative budget", func(c *Config) { c.Budget = -1 }, []string{"-budget -1"}},
		{"negative slack", func(c *Config) { c.Slack = -5 }, []string{"-slack -5"}},
		{"negative shared cache", func(c *Config) { c.SharedCache = -7 }, []string{"-sharedcache -7"}},
		{"unknown device", func(c *Config) { c.Device = "pixel" }, []string{`unknown -device "pixel"`}},
		{"every fault at once", func(c *Config) {
			c.Node, c.Models, c.Replicas, c.SharedCache, c.Device = "a", nil, 0, -1, "pixel"
		}, []string{"need -mode node", "at least one -model", "-replicas 0", "-sharedcache -1", "unknown -device"}},
	} {
		cfg := base
		tc.edit(&cfg)
		err := cfg.Validate()
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: valid, want an error naming %q", tc.name, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not name %q", tc.name, err, w)
			}
		}
	}
}

// quickConfig is a Config drawn from small per-field domains, each
// holding valid and invalid values, for the Validate property test.
// validPeers records whether Peers parses.
type quickConfig struct {
	Config
	validPeers bool
}

func pick[T any](r *rand.Rand, vs ...T) T { return vs[r.Intn(len(vs))] }

func (quickConfig) Generate(r *rand.Rand, _ int) reflect.Value {
	peers := []struct {
		s     string
		valid bool
	}{{"", false}, {"a=http://h:1,b=http://h:2", true}, {"a", false}, {"a=http://h:1,a=http://h:2", false}}
	p := pick(r, peers...)
	return reflect.ValueOf(quickConfig{Config: Config{
		Models:      pick(r, nil, ModelSpecs{{Name: "m", Dir: "/s", Target: time.Second, Weight: 1}}),
		Addr:        pick(r, "", ":8080"),
		Device:      pick(r, "odroid", "jetson", "pixel"),
		Budget:      pick[int64](r, -1, 0, 4096),
		Replicas:    r.Intn(5) - 1,
		Slack:       pick(r, -5, 0, 1.5, 4, math.NaN()),
		SharedCache: pick[int64](r, -7, 0, 1<<20),
		Mode:        pick(r, "standalone", "node", "router", "mesh"),
		Peers:       p.s,
		Node:        pick(r, "", "a"),
		DrainGrace:  pick(r, 0, time.Second),
		Pprof:       r.Intn(2) == 0,
	}, validPeers: p.valid})
}

// violations lists the flag each broken per-field rule names: the mode
// and cluster rules for every mode, the serving rules unless the
// process is a router, which serves no models.
func (q quickConfig) violations() []string {
	c := q.Config
	var v []string
	switch c.Mode {
	case "router":
		if len(c.Models) > 0 {
			v = append(v, "-model")
		}
	case "node":
		if c.Peers == "" || c.Node == "" {
			v = append(v, "-node")
		}
	case "standalone":
		if c.Peers != "" || c.Node != "" {
			v = append(v, "-peers/-node")
		}
	default:
		v = append(v, "-mode")
	}
	if (c.Mode == "router" || c.Mode == "node" && c.Peers != "") && !q.validPeers {
		v = append(v, "-peers")
	}
	if c.Mode == "router" {
		return v
	}
	for _, rule := range []struct {
		broken bool
		flag   string
	}{
		{len(c.Models) == 0, "-model"},
		{c.Budget < 0, "-budget"},
		{c.Replicas < 1, "-replicas"},
		{!(c.Slack > 0), "-slack"},
		{c.SharedCache < 0, "-sharedcache"},
		{c.Device != "odroid" && c.Device != "jetson", "-device"},
	} {
		if rule.broken {
			v = append(v, rule.flag)
		}
	}
	return v
}

// TestConfigValidateProperty checks Validate over random configurations:
// it never panics, returns nil exactly when every per-field rule holds,
// and names every violated flag in its joined error.
func TestConfigValidateProperty(t *testing.T) {
	prop := func(q quickConfig) bool {
		err := q.Validate()
		want := q.violations()
		if (err == nil) != (len(want) == 0) {
			t.Logf("%+v: err %v, violations %q", q.Config, err, want)
			return false
		}
		for _, flag := range want {
			if !strings.Contains(err.Error(), flag) {
				t.Logf("%+v: %q does not name %s", q.Config, err, flag)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestServeOptions pins the scheduler sti-serve builds: two workers per
// replica, the -slack multiplier, batches of up to maxBatch, and the
// library defaults for the queue depth, batch window and stream cap.
func TestServeOptions(t *testing.T) {
	for _, replicas := range []int{1, 4} {
		got := serveOptions(Config{Replicas: replicas, Slack: 1.5}, nil)
		want := sti.ServeOptions{Workers: 2 * replicas, Slack: 1.5, MaxBatch: 8}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replicas %d: %+v, want %+v", replicas, got, want)
		}
	}
}

// TestModelSpecsSet pins the -model syntax, including the rejection of a
// target the planner cannot plan for.
func TestModelSpecsSet(t *testing.T) {
	var m ModelSpecs
	for _, v := range []string{"a=/s/a", "b=/s/b,target=150ms,weight=2.5"} {
		if err := m.Set(v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	want := ModelSpecs{
		{Name: "a", Dir: "/s/a", Target: 200 * time.Millisecond, Weight: 1},
		{Name: "b", Dir: "/s/b", Target: 150 * time.Millisecond, Weight: 2.5},
	}
	if fmt.Sprint(m) != fmt.Sprint(want) {
		t.Fatalf("parsed %+v, want %+v", m, want)
	}
	for _, v := range []string{"a", "=/s", "a=", "a=/s,target=0s", "a=/s,target=-2.5ms",
		"a=/s,target=soon", "a=/s,weight=x", "a=/s,color=red", "a=/s,target"} {
		if err := m.Set(v); err == nil {
			t.Errorf("%q parsed", v)
		}
	}
	if len(m) != 2 {
		t.Errorf("rejected specs were appended: %+v", m)
	}
}

// TestNewReportsBuildErrors: errors past Validate — a store that does not
// load, a node missing from its own peer list, a port already taken —
// come back from New and Run instead of ending the process.
func TestNewReportsBuildErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(sti.TinyConfig(), 1), []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	base := Config{
		Models: ModelSpecs{{Name: "m", Dir: dir, Target: 200 * time.Millisecond, Weight: 1}},
		Addr:   "127.0.0.1:0", Device: "odroid", Budget: 256 << 10, Replicas: 1, Slack: 4,
		SharedCache: 1 << 20, Mode: "standalone",
	}
	missing := base
	missing.Models = ModelSpecs{{Name: "m", Dir: t.TempDir(), Target: time.Second, Weight: 1}}
	if _, err := New(missing); err == nil || !strings.Contains(err.Error(), `loading "m"`) {
		t.Errorf("empty store dir: %v", err)
	}
	stranger := base
	stranger.Mode, stranger.Node, stranger.Peers = "node", "c", "a=http://h:1"
	if _, err := New(stranger); err == nil || !strings.Contains(err.Error(), "not in the peer list") {
		t.Errorf("node outside -peers: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	taken := base
	taken.Addr = ln.Addr().String()
	if err := Run(context.Background(), taken); err == nil {
		t.Error("Run on a taken port returned nil")
	}
	if err := Run(context.Background(), Config{}); err == nil {
		t.Error("Run on an invalid configuration returned nil")
	}
}

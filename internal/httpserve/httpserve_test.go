package httpserve

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sti"
)

// TestConfigValidate covers every startup error Validate reports, one
// case each, and a configuration with several faults, which names them
// all in one joined error.
func TestConfigValidate(t *testing.T) {
	base := Config{
		Models: ModelSpecs{{Name: "m", Dir: "/s", Target: time.Second, Weight: 1}},
		Device: "odroid", Workers: 2, Replicas: 1, SharedCache: 1 << 20, Mode: "standalone",
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
			c.Mode, c.Models, c.Peers, c.Workers, c.Device = "router", nil, "a=http://h:1", 0, "x"
		}, nil},
		{"speculate without a shared cache", func(c *Config) { c.Speculate, c.SharedCache = true, 0 }, nil},
		{"prefetch with a shared cache", func(c *Config) { c.Prefetch, c.Speculate = true, true }, nil},
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
		{"no worker", func(c *Config) { c.Workers = 0 }, []string{"-workers 0"}},
		{"fewer workers than replicas", func(c *Config) { c.Workers, c.Replicas = 2, 4 }, []string{"-workers 2 < -replicas 4"}},
		{"prefetch without a shared cache", func(c *Config) { c.Prefetch, c.SharedCache = true, 0 }, []string{"-prefetch requires a non-zero -sharedcache"}},
		{"prefetch with a negative shared cache", func(c *Config) { c.Prefetch, c.SharedCache = true, -1 }, []string{"-sharedcache"}},
		{"unknown device", func(c *Config) { c.Device = "pixel" }, []string{`unknown -device "pixel"`}},
		{"every fault at once", func(c *Config) {
			c.Node, c.Models, c.Workers, c.Prefetch, c.SharedCache, c.Device = "a", nil, 0, true, 0, "pixel"
		}, []string{"need -mode node", "at least one -model", "-workers 0", "-prefetch", "unknown -device"}},
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
		Addr:   "127.0.0.1:0", Device: "odroid", Budget: 256 << 10, Workers: 2, Replicas: 1,
		SharedCache: 1 << 20, Mode: "standalone", TraceRing: 8,
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

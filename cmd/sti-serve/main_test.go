package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sti/internal/httpserve"
)

// TestParseFlags pins every flag name and default the benchmark and the
// docs pass: the defaults, a command line with every flag set, and the
// -workers default that follows -replicas.
func TestParseFlags(t *testing.T) {
	defaults := httpserve.Config{
		Addr: ":8080", Device: "odroid", Budget: 256 << 10, Queue: 64, Workers: 2,
		Replicas: 1, Slack: 4, MaxBatch: 8, BatchWindow: 2 * time.Millisecond,
		MaxStreams: 64, SharedCache: 1 << 20, Mode: "standalone",
		DrainGrace: time.Second, Target: 200 * time.Millisecond, TraceRing: 8,
	}
	every := httpserve.Config{
		Models: httpserve.ModelSpecs{
			{Name: "a", Dir: "/s/a", Target: 150 * time.Millisecond, Weight: 2},
			{Name: "b", Dir: "/s/b", Target: 200 * time.Millisecond, Weight: 1},
		},
		Addr: "127.0.0.1:9", Device: "jetson", Budget: 4096, Queue: 3, Workers: 5,
		Replicas: 4, Slack: 1.5, MaxBatch: 2, BatchWindow: 7 * time.Millisecond,
		MaxStreams: 9, Prefetch: true, Speculate: true, SharedCache: 123,
		Mode: "node", Peers: "a=http://h:1", Node: "a", DrainGrace: 3 * time.Second,
		Target: 90 * time.Millisecond, Pprof: true, TraceRing: 16, NoTrace: true,
	}
	replicas := defaults
	replicas.Replicas, replicas.Workers = 4, 8
	for _, tc := range []struct {
		name string
		args []string
		want httpserve.Config
	}{
		{"defaults", nil, defaults},
		{"every flag", []string{
			"-model", "a=/s/a,target=150ms,weight=2", "-model", "b=/s/b",
			"-addr", "127.0.0.1:9", "-device", "jetson", "-budget", "4096", "-queue", "3",
			"-workers", "5", "-replicas", "4", "-slack", "1.5", "-maxbatch", "2",
			"-batchwindow", "7ms", "-maxstreams", "9", "-prefetch", "-speculate",
			"-sharedcache", "123", "-mode", "node", "-peers", "a=http://h:1", "-node", "a",
			"-draingrace", "3s", "-target", "90ms", "-pprof", "-tracering", "16", "-notrace",
		}, every},
		{"unset -workers follows -replicas", []string{"-replicas", "4"}, replicas},
	} {
		got, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-model", "a=/s/a,target=-2.5ms"}); err == nil {
		t.Error("a non-positive target= parsed")
	}
}

// flagsValidate parses a standalone command line serving one model and
// validates the result, the path main takes before it serves anything.
func flagsValidate(t *testing.T, args ...string) (httpserve.Config, error) {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-model", "m=/s"}, args...))
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return cfg, cfg.Validate()
}

// TestConcurrencyForValidation covers the -workers/-replicas matrix: an
// unset -workers follows -replicas, an explicit one must cover them, and
// zero workers or replicas are rejected.
func TestConcurrencyForValidation(t *testing.T) {
	for _, c := range []struct {
		args    []string
		want    int
		wantErr bool
	}{
		{args: nil, want: 2},                                           // defaults untouched
		{args: []string{"-replicas", "4"}, want: 8},                    // adaptive: 2x replicas
		{args: []string{"-workers", "12", "-replicas", "4"}, want: 12}, // explicit and ample
		{args: []string{"-workers", "4", "-replicas", "4"}, want: 4},   // explicit at the floor
		{args: []string{"-workers", "2", "-replicas", "4"}, wantErr: true},
		{args: []string{"-workers", "0", "-replicas", "1"}, wantErr: true},
		{args: []string{"-replicas", "0"}, wantErr: true},
	} {
		cfg, err := flagsValidate(t, c.args...)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: workers=%d valid, want error", c.args, cfg.Workers)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.args, err)
			continue
		}
		if cfg.Workers != c.want {
			t.Errorf("%q: workers=%d, want %d", c.args, cfg.Workers, c.want)
		}
	}
}

// TestPredictConfigFor covers the prediction flag matrix: off by
// default, on when either actuator flag is set, and -prefetch with a
// zero-byte or negative shared cache rejected with an explanation.
func TestPredictConfigFor(t *testing.T) {
	for _, c := range []struct {
		args                []string
		prefetch, speculate bool
	}{
		{nil, false, false},
		{[]string{"-prefetch"}, true, false},
		{[]string{"-speculate", "-sharedcache", "0"}, false, true}, // valid: no staging
		{[]string{"-prefetch", "-speculate", "-sharedcache", "4096"}, true, true},
	} {
		cfg, err := flagsValidate(t, c.args...)
		if err != nil || cfg.Prefetch != c.prefetch || cfg.Speculate != c.speculate {
			t.Errorf("%q: prefetch=%v speculate=%v err=%v, want prefetch=%v speculate=%v",
				c.args, cfg.Prefetch, cfg.Speculate, err, c.prefetch, c.speculate)
		}
	}
	for _, bytes := range []string{"0", "-1"} {
		_, err := flagsValidate(t, "-prefetch", "-sharedcache", bytes)
		if err == nil {
			t.Errorf("-prefetch with -sharedcache=%s valid, want rejection", bytes)
		} else if !strings.Contains(err.Error(), "-sharedcache") {
			t.Errorf("rejection should name -sharedcache: %v", err)
		}
	}
}

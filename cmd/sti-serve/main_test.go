package main

import (
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sti/internal/httpserve"
)

// TestParseFlags pins every flag name and default the benchmark and the
// docs pass: the flag list itself, the defaults, a command line with
// every flag set, and the rejection of each removed tuning flag.
func TestParseFlags(t *testing.T) {
	var names []string
	newFlagSet(new(httpserve.Config)).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	wantNames := []string{"addr", "budget", "device", "draingrace", "mode", "model", "node",
		"peers", "pprof", "replicas", "sharedcache", "slack"}
	if !slices.Equal(names, wantNames) {
		t.Errorf("flags %q, want %q", names, wantNames)
	}
	defaults := httpserve.Config{
		Addr: ":8080", Device: "odroid", Budget: 256 << 10, Replicas: 1, Slack: 4,
		SharedCache: 1 << 20, Mode: "standalone", DrainGrace: time.Second,
	}
	every := httpserve.Config{
		Models: httpserve.ModelSpecs{
			{Name: "a", Dir: "/s/a", Target: 150 * time.Millisecond, Weight: 2},
			{Name: "b", Dir: "/s/b", Target: 200 * time.Millisecond, Weight: 1},
		},
		Addr: "127.0.0.1:9", Device: "jetson", Budget: 4096, Replicas: 4, Slack: 1.5,
		SharedCache: 123, Mode: "node",
		Peers: "a=http://h:1", Node: "a", DrainGrace: 3 * time.Second, Pprof: true,
	}
	for _, tc := range []struct {
		name string
		args []string
		want httpserve.Config
	}{
		{"defaults", nil, defaults},
		{"every flag", []string{
			"-model", "a=/s/a,target=150ms,weight=2", "-model", "b=/s/b",
			"-addr", "127.0.0.1:9", "-device", "jetson", "-budget", "4096",
			"-replicas", "4", "-slack", "1.5",
			"-sharedcache", "123", "-mode", "node", "-peers", "a=http://h:1", "-node", "a",
			"-draingrace", "3s", "-pprof",
		}, every},
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
	for _, args := range [][]string{{"-queue", "64"}, {"-workers", "2"}, {"-maxbatch", "8"},
		{"-batchwindow", "2ms"}, {"-maxstreams", "64"}, {"-tracering", "8"}, {"-notrace"},
		{"-target", "200ms"}, {"-prefetch"}, {"-speculate"}} {
		fs := newFlagSet(new(httpserve.Config))
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%q: %v, want an undefined-flag error", args, err)
		}
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

// TestConcurrencyForValidation covers -replicas: one or more replicas
// are valid, zero or fewer are rejected.
func TestConcurrencyForValidation(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr bool
	}{
		{args: nil},                        // defaults untouched
		{args: []string{"-replicas", "4"}}, // several replicas
		{args: []string{"-replicas", "0"}, wantErr: true},
		{args: []string{"-replicas", "-1"}, wantErr: true},
	} {
		_, err := flagsValidate(t, c.args...)
		if (err != nil) != c.wantErr {
			t.Errorf("%q: err=%v, want error %v", c.args, err, c.wantErr)
		}
	}
}

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"sti"
	"sti/internal/store"
)

// env is where a run finds the repository and keeps what it builds.
type env struct {
	root string // module root: holds go.mod, cmd/sti-serve and bench/
	out  string // bench/out: binaries, stores, result and trace files
}

// findEnv locates the module root from the working directory: the
// benchmark runs from the root of a checkout.
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "sti-serve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				return &env{root: d, out: filepath.Join(d, "bench", "out")}, nil
			}
		}
		if d == filepath.Dir(d) {
			return nil, fmt.Errorf("bench: no module root with cmd/sti-serve above %s", dir)
		}
	}
}

func (e *env) storeDir(m modelSpec) string {
	return filepath.Join(e.out, "stores", fmt.Sprintf("%s_seed%d", geometryName, m.Seed))
}

// ensureStore preprocesses a model's shard store unless a complete one is
// cached (the manifest is the last file Preprocess writes) and returns how
// long preprocessing took — for a cached store, how long it took when it
// was built, kept beside it. Store building is not part of setup_s.
func (e *env) ensureStore(m modelSpec) (time.Duration, error) {
	dir := e.storeDir(m)
	tookPath := dir + ".preprocess_ns"
	if st, err := store.Open(dir); err == nil && st.Man.Config == geometry {
		if data, err := os.ReadFile(tookPath); err == nil {
			if ns, err := strconv.ParseInt(string(data), 10, 64); err == nil {
				return time.Duration(ns), nil
			}
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := sti.Preprocess(dir, sti.NewRandomModel(geometry, m.Seed), nil); err != nil {
		return 0, fmt.Errorf("bench: preprocessing %s: %w", dir, err)
	}
	took := time.Since(start)
	return took, os.WriteFile(tookPath, []byte(strconv.FormatInt(int64(took), 10)), 0o644)
}

// buildServer compiles cmd/sti-serve from the checkout's source into
// bench/out/bin and returns the binary's path.
func (e *env) buildServer() (string, error) {
	bin := filepath.Join(e.out, "bin", "sti-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sti-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building sti-serve: %w\n%s", err, out)
	}
	return bin, nil
}

package tensor_test

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"sti/internal/tensor"
)

// TestExpKernelsOffUnderFMAOff checks that the four-lane kernels turn
// themselves off when math.Exp leaves its FMA branch, which
// GODEBUG=cpu.fma=off makes it do on an FMA host: the kernels replay that
// branch, so running them then would change GELU and softmax bits. A gate
// on CPUID alone would keep them on. The test runs itself again in a
// child process with that setting.
func TestExpKernelsOffUnderFMAOff(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if math.Float64bits(math.Exp(1.99)) == 0x401d431b48579d1b {
			t.Skip("math.Exp kept its FMA branch: FMA is a baseline feature of this build (GOAMD64=v3)")
		}
		if tensor.ExpKernels() {
			t.Fatal("kernels on under GODEBUG=cpu.fma=off, where math.Exp takes its non-FMA branch")
		}
		return
	}
	t.Logf("kernels on in this process: %v", tensor.ExpKernels())
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpKernelsOffUnderFMAOff$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- PASS: TestExpKernelsOffUnderFMAOff") &&
		!strings.Contains(string(out), "--- SKIP: TestExpKernelsOffUnderFMAOff") {
		t.Fatalf("child under GODEBUG=cpu.fma=off ran no test:\n%s", out)
	}
	t.Logf("child:\n%s", out)
}

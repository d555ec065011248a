package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds keeps tier-1 honest about the repository
// benchmark: bench/ is a module of its own (bench/go.mod replaces
// repro => ../), so the root `go build ./... && go test ./...` never
// compiles it, and a change to an internal API that bench/replay.go or
// bench/wf.go calls would otherwise break the benchmark with every
// tier-1 test green.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{
		{"build", "-C", "bench", "-o", os.DevNull, "./..."},
		{"vet", "-C", "bench", "./..."},
	} {
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}

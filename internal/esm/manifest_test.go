package esm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/grid"
)

// update regenerates testdata/manifest.json from the code under test:
//
//	go test ./internal/esm -run TestOutputManifest -update
//
// The committed manifest was generated before StepDay was rewritten
// (ISSUE 21); regenerate it only for a change that is meant to alter
// the model's output.
var update = flag.Bool("update", false, "rewrite testdata/manifest.json from the current code")

const manifestPath = "testdata/manifest.json"

// manifestCases are the pinned runs: 2 years × 30 days, default events.
func manifestCases() map[string]Config {
	mk := func(seed int64, nlat, nlon int, sc Scenario) Config {
		return Config{Grid: grid.Grid{NLat: nlat, NLon: nlon}, Years: 2, DaysPerYear: 30, Seed: seed, Scenario: sc}
	}
	return map[string]Config{
		"seed42_24x48":        mk(42, 24, 48, Historical),
		"seed42_48x96":        mk(42, 48, 96, Historical),
		"seed7_24x48":         mk(7, 24, 48, Historical),
		"seed7_48x96":         mk(7, 48, 96, Historical),
		"seed42_24x48_ssp585": mk(42, 24, 48, SSP585), // non-zero warming term
	}
}

// hashFiles maps each file's base name to the SHA-256 of its bytes.
func hashFiles(t *testing.T, paths []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[filepath.Base(p)] = hex.EncodeToString(sum[:])
	}
	return out
}

// loadManifest reads the golden hashes. They are amd64's: the Go spec
// lets other architectures fuse x*y+z, which rounds differently.
func loadManifest(t *testing.T) map[string]map[string]string {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("manifest hashes were generated on amd64, this is %s", runtime.GOARCH)
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// diffHashes fails the test on the first file whose hash differs.
func diffHashes(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", what, len(got), len(want))
	}
	for name, h := range want {
		if got[name] != h {
			t.Fatalf("%s: %s has sha256 %s, want %s", what, name, got[name], h)
		}
	}
}

// TestOutputManifest pins every daily file byte for byte, and pins the
// buffer-recycling Run path to the independent StepDay+WriteDay path.
func TestOutputManifest(t *testing.T) {
	got := make(map[string]map[string]string)
	for name, cfg := range manifestCases() {
		paths, err := NewModel(cfg).Run(RunOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		got[name] = hashFiles(t, paths)

		m, dir := NewModel(cfg), t.TempDir()
		var stepped []string
		for d := m.StepDay(); d != nil; d = m.StepDay() {
			p, err := d.WriteDay(dir)
			if err != nil {
				t.Fatal(err)
			}
			stepped = append(stepped, p)
		}
		diffHashes(t, name+": StepDay+WriteDay vs Run", hashFiles(t, stepped), got[name])
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(manifestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", manifestPath)
		return
	}
	want := loadManifest(t)
	if len(want) != len(got) {
		t.Fatalf("manifest has %d runs, want %d", len(want), len(got))
	}
	for name := range got {
		diffHashes(t, name, got[name], want[name])
	}
}

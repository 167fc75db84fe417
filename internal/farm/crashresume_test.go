package farm

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The crash/resume battery uses the stdlib's helper-process pattern: the
// test re-executes its own binary with an env var selecting a helper
// "test" that runs a farm, SIGKILLs it mid-grid, then resumes from the
// manifest in-process and checks the merged grid digest against a fresh
// serial run — a whole-process crash costs no completed point and no bit
// of the grid digest.

const crashHelperEnv = "PHOTON_FARM_CRASH_MANIFEST"

// crashGrid must be identical in the helper child and the resuming
// parent: same construction, same options, same fingerprint.
func crashGrid() Grid { return testGrid(12) }

// TestFarmCrashHelper is not a test: it is the subprocess body for
// TestFarmCrashResume, selected by env var and skipped otherwise.
func TestFarmCrashHelper(t *testing.T) {
	manifest := os.Getenv(crashHelperEnv)
	if manifest == "" {
		t.Skip("helper process body; driven by TestFarmCrashResume")
	}
	_, err := Run(crashGrid(), Config{
		Workers:  1,
		Manifest: manifest,
		Resume:   true,
		// Slow the grid down so the parent reliably lands its SIGKILL
		// mid-run; the sleep happens after the point's record is durable.
		PostPoint: func(PointState) { time.Sleep(150 * time.Millisecond) },
	})
	if err != nil {
		t.Fatalf("helper farm run: %v", err)
	}
}

// doneCount polls the manifest for durable completed points, tolerating
// a file that is mid-append (torn tails included).
func doneCount(path string) int {
	md, err := LoadManifest(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, st := range md.States {
		if st.Status == StatusDone {
			n++
		}
	}
	return n
}

func TestFarmCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash battery skipped in -short mode")
	}
	manifest := filepath.Join(t.TempDir(), "crash.jsonl")

	cmd := exec.Command(os.Args[0], "-test.run=^TestFarmCrashHelper$")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+manifest)
	out, err := os.CreateTemp(t.TempDir(), "helper-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}

	// Wait until at least two points are durably recorded, then SIGKILL
	// the whole process mid-grid.
	deadline := time.Now().Add(60 * time.Second)
	for doneCount(manifest) < 2 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			dump, _ := os.ReadFile(out.Name())
			t.Fatalf("helper made no durable progress; output:\n%s", dump)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait() // expected to report the kill; the manifest is what matters

	g := crashGrid()
	rep, err := Run(g, Config{Workers: 4, Manifest: manifest, Resume: true})
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	if rep.Resumed < 2 {
		t.Fatalf("resume found only %d durable points, expected >= 2", rep.Resumed)
	}
	if rep.Resumed >= len(g.Points) {
		t.Fatalf("kill landed after the whole grid finished (%d resumed); nothing was tested", rep.Resumed)
	}
	if !rep.Complete() {
		t.Fatalf("resumed grid incomplete: %+v", rep.Quarantined())
	}

	want, err := SerialGridDigest(g)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	if got := rep.GridDigest(); got != want {
		t.Fatalf("crash/resume grid digest %016x != serial single-process digest %016x", got, want)
	}

	// A second resume is a no-op: everything is durable.
	again, err := Run(g, Config{Workers: 4, Manifest: manifest, Resume: true})
	if err != nil {
		t.Fatalf("idempotent resume: %v", err)
	}
	if again.Ran != 0 || again.GridDigest() != want {
		t.Fatalf("second resume re-ran %d points (digest %016x, want %016x)", again.Ran, again.GridDigest(), want)
	}
}

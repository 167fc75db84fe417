package exp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"photon/internal/core"
	"photon/internal/sim"
	"photon/internal/trace"
	"photon/internal/traffic"
)

func TestDoContainsPanics(t *testing.T) {
	errs := Do(5, 2, func(i int) error {
		if i == 3 {
			panic("job 3 exploded")
		}
		return nil
	})
	for i, err := range errs {
		if i == 3 {
			if err == nil || !strings.Contains(err.Error(), "job 3 exploded") {
				t.Fatalf("panic not contained: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if got := Do(0, 4, func(int) error { return nil }); len(got) != 0 {
		t.Fatalf("Do(0) returned %d slots", len(got))
	}
}

// TestDoKeepsJobOrder: whatever the worker count — serial, fewer workers
// than jobs, more workers than jobs — every job runs exactly once and its
// result and error land in its own slot.
func TestDoKeepsJobOrder(t *testing.T) {
	const n = 17
	for _, workers := range []int{1, 3, 64} {
		got := make([]int, n)
		errs := Do(n, workers, func(i int) error {
			got[i] += i + 1
			if i%5 == 2 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d error slots, want %d", workers, len(errs), n)
		}
		for i := range got {
			if got[i] != i+1 {
				t.Errorf("workers=%d: job %d ran %d times its share", workers, i, got[i])
			}
			want := ""
			if i%5 == 2 {
				want = fmt.Sprintf("job %d failed", i)
			}
			if (errs[i] == nil) != (want == "") || (errs[i] != nil && errs[i].Error() != want) {
				t.Errorf("workers=%d: slot %d holds %v, want %q", workers, i, errs[i], want)
			}
		}
	}
}

// TestLowestIndexErrorWins: with several failing jobs, the drivers built
// on Do report the lowest-index failure every time, not whichever worker
// lost a race. (Run with -count=20 to shake the scheduler.)
func TestLowestIndexErrorWins(t *testing.T) {
	opts := Options{Window: sim.Window{Warmup: 50, Measure: 100, Drain: 100}, Seed: 1, Parallel: 4}
	bad := func(c *core.Config) { c.BufferDepth = 0 }
	ur := traffic.UniformRandom{}

	t.Run("RunPoints", func(t *testing.T) {
		points := []Point{
			{Scheme: core.TokenSlot, Pattern: ur, Rate: 0.01},
			{Scheme: core.GHS, Pattern: ur, Rate: 0.01, Mod: bad},
			{Scheme: core.DHS, Pattern: ur, Rate: 0.01, Mod: func(*core.Config) { panic("later failure") }},
		}
		for round := 0; round < 20; round++ {
			_, err := RunPoints(points, opts)
			if err == nil || !strings.Contains(err.Error(), "point 1 (ghs") {
				t.Fatalf("round %d: want point 1's error, got %v", round, err)
			}
		}
	})

	// Fig10 has no failing input reachable through its signature; it and
	// IPCStudy share runAppJobs, which is exercised here directly.
	t.Run("runAppJobs", func(t *testing.T) {
		var jobs []appJob
		for _, app := range trace.Apps()[:6] {
			jobs = append(jobs, appJob{app, core.DHS})
		}
		for round := 0; round < 20; round++ {
			_, err := runAppJobs("Fig10", jobs, opts, func(j appJob) (float64, error) {
				switch j.app.Name {
				case jobs[2].app.Name:
					return 0, errors.New("first failure")
				case jobs[4].app.Name:
					panic("second failure")
				}
				return 1, nil
			})
			want := fmt.Sprintf("exp: Fig10 %s/dhs: first failure", jobs[2].app.Name)
			if err == nil || err.Error() != want {
				t.Fatalf("round %d: got %v, want %q", round, err, want)
			}
		}
	})

	t.Run("IPCStudy", func(t *testing.T) {
		// Unregistered schemes fail network construction in every job.
		for round := 0; round < 20; round++ {
			_, _, err := IPCStudy(core.Scheme(200), core.Scheme(201), opts)
			want := fmt.Sprintf("exp: IPC %s/Scheme(200): ", trace.Apps()[0].Name)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("round %d: got %v, want prefix %q", round, err, want)
			}
		}
	})
}

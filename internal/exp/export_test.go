package exp

import (
	"sync"
	"testing"
)

// stubRuns swaps Simulate's per-point runner, for the rest of the test,
// for one that simulates nothing, returns a zero result and counts the
// runs of each key.
func stubRuns(t *testing.T) map[pointKey]int {
	runs := map[pointKey]int{}
	var mu sync.Mutex
	prev := simulatePoint
	t.Cleanup(func() { simulatePoint = prev })
	simulatePoint = func(p Point, opts Options) (WorkloadSLO, error) {
		mu.Lock()
		runs[keyOf(p, opts)]++
		mu.Unlock()
		return WorkloadSLO{Scheme: p.Scheme}, nil
	}
	return runs
}

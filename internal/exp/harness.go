package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"photon/internal/core"
	"photon/internal/traffic"
)

// This file is the run harness every driver above the cycle engine
// shares: the one bounded worker pool (Do) and the one place a Point is
// turned into a network and its injector (buildPoint).

// Do fans n independent jobs over a bounded worker pool (workers <= 0
// means GOMAXPROCS) and returns one error slot per job, in job order. A
// panic inside a job is recovered into its slot, so one poisoned job
// reports itself instead of taking down the process. Workers pull from a
// shared channel — never one goroutine per job. Do has no retries, no
// manifest and no deadlines; farm.Run owns those.
func Do(n, workers int, run func(i int) error) []error {
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	safe := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("exp: job %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return run(i)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = safe(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errs
}

// buildPoint constructs the network and injector a point specifies. The
// injector is the legacy fixed-rate Bernoulli path when Workload is empty
// (bit-identical to the pre-workload injector) and the parsed workload
// otherwise; both use the same derived seed, so a workload spec of
// "bernoulli(rate=r)" and a bare Rate r are the same experiment.
func buildPoint(p Point, opts Options) (*core.Network, *traffic.Injector, error) {
	cfg := core.DefaultConfig(p.Scheme)
	cfg.Seed = opts.Seed
	if p.Mod != nil {
		p.Mod(&cfg)
	}
	net, err := core.NewNetwork(cfg, opts.Window)
	if err != nil {
		return nil, nil, err
	}
	seed := opts.Seed + 0x9E37
	if p.Workload == "" {
		inj, err := traffic.NewInjector(p.Pattern, p.Rate, cfg.Nodes, cfg.CoresPerNode, seed)
		return net, inj, err
	}
	w, err := traffic.ParseWorkload(p.Workload)
	if err != nil {
		return nil, nil, err
	}
	inj, err := traffic.NewWorkloadInjector(w, p.Pattern, cfg.Nodes, cfg.CoresPerNode, seed)
	return net, inj, err
}

package exp

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"

	"photon/internal/core"
	"photon/internal/traffic"
)

// This file is the run harness every driver above the cycle engine
// shares: the one bounded worker pool (Do), the one place a Point is
// turned into a network and its injector (buildPoint), and what the
// commands' -cpuprofile / -memprofile flags do (Profile).

// Profile starts a CPU profile into cpuPath and returns the function that
// stops it and writes a heap profile to memPath; an empty path skips that
// profile. Both files are created here, so an unwritable path fails before
// the run instead of after it, and every error names its path.
func Profile(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
				err = fmt.Errorf("cpu profile %s: %w", cpuPath, err)
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if mem != nil {
			runtime.GC() // settle the statistics the heap profile reports
			werr := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil && err == nil {
				err = fmt.Errorf("heap profile %s: %w", memPath, werr)
			}
		}
		return err
	}, nil
}

// Do fans n independent jobs over a bounded worker pool (workers <= 0
// means GOMAXPROCS) and returns one error slot per job, in job order. A
// panic inside a job is recovered into its slot, so one poisoned job
// reports itself instead of taking down the process. Workers pull from a
// shared channel — never one goroutine per job. Do runs each job once; a
// manifest and resume are farm.Run's, which is built on Do.
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
	cfg := pointConfig(p, opts)
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

// pointConfig is the network configuration p resolves to: its scheme's
// defaults, the run's seed, then Mod.
func pointConfig(p Point, opts Options) core.Config {
	cfg := core.DefaultConfig(p.Scheme)
	cfg.Seed = opts.Seed
	if p.Mod != nil {
		p.Mod(&cfg)
	}
	return cfg
}

// Package farm is the durable sweep runner: it executes any []exp.Point
// grid on the shared worker pool (exp.Do) and an optional crash-safe job
// manifest, so that the regeneration grids behind the paper's figures
// survive point panics and whole-process crashes.
//
// Each point runs exactly once. A point is a pure function of its
// (exp.Point, exp.Options), so a second attempt could only replay the
// same failure: a point whose run returns an error or panics is
// quarantined at once, keyed and with its cause, and the grid completes
// without it — reported, never wedged.
//
// A whole-process crash is answered by the manifest: with Config.Manifest
// set, every finished point is appended to a crash-safe JSONL journal
// (see manifest.go). Killing the process at any moment and re-running
// with Config.Resume skips the done and quarantined points; the
// per-point digests recorded in the manifest merge — in grid index
// order — into a grid digest that is byte-identical to a serial
// single-process run of the same grid, extending the serial≡parallel
// guarantee of exp.RunPoints to crash/resume execution.
package farm

import (
	"fmt"
	"sync"

	"photon/internal/core"
	"photon/internal/exp"
)

// Status is a point's position in a farm run. The persisted states are
// done and quarantined; pending is every point without a record, so a
// crash always resumes from a consistent state.
type Status string

const (
	StatusPending     Status = "pending"
	StatusDone        Status = "done"
	StatusQuarantined Status = "quarantined"
)

// Summary is the portable per-point result subset persisted in the
// manifest — enough to rebuild the sweep tables after a resume without
// re-running completed points.
type Summary struct {
	Scheme          string  `json:"scheme"`
	AvgLatency      float64 `json:"avgLatency"`
	Throughput      float64 `json:"throughput"`
	OfferedLoad     float64 `json:"offeredLoad"`
	DropRate        float64 `json:"dropRate"`
	RetransmitRate  float64 `json:"retxRate"`
	CirculationRate float64 `json:"circRate"`
	Delivered       int64   `json:"delivered"`
	DigestEvents    uint64  `json:"digestEvents"`
}

// summarize condenses a run result into its manifest summary.
func summarize(res core.Result) Summary {
	return Summary{
		Scheme:          res.Scheme.String(),
		AvgLatency:      res.AvgLatency,
		Throughput:      res.Throughput,
		OfferedLoad:     res.OfferedLoad,
		DropRate:        res.DropRate,
		RetransmitRate:  res.RetransmitRate,
		CirculationRate: res.CirculationRate,
		Delivered:       res.Delivered,
		DigestEvents:    res.DigestEvents,
	}
}

// PointState is the state of one grid point.
type PointState struct {
	Key    string
	Index  int
	Status Status
	// Attempts is 1 for a point that finished (done or quarantined) and 0
	// for a pending one: a point runs once.
	Attempts int
	// Digest is the point's behavioural run digest (done points only).
	Digest  uint64
	Summary Summary
	// LastError is a quarantined point's failure, naming its key and cause.
	LastError string
	// Resumed marks a point whose terminal state was loaded from the
	// manifest rather than executed in this run.
	Resumed bool
}

// Config tunes one farm run.
type Config struct {
	// Workers bounds concurrently executing points (0 = GOMAXPROCS).
	Workers int
	// Manifest is the durable journal path ("" = in-memory only).
	Manifest string
	// Resume loads an existing manifest (matching it against the grid's
	// fingerprint) and skips its done and quarantined points. Without
	// Resume an existing manifest file is truncated.
	Resume bool
	// Sync fsyncs the manifest after every appended record. Plain
	// appends already survive a process kill; Sync extends that to
	// power loss at the cost of one fsync per point.
	Sync bool
	// PostPoint, when set, observes every finished point, done or
	// quarantined, after its record is journaled. Calls are one at a
	// time, in completion order.
	PostPoint func(PointState)
}

// GridReport is the outcome of one farm run over a grid.
type GridReport struct {
	Grid string
	// Points holds every point's final state, in grid index order.
	Points []PointState
	// Ran counts points executed by this run; Resumed counts points whose
	// terminal state came from the manifest.
	Ran     int
	Resumed int
}

// Complete reports whether every point finished (none quarantined).
func (r *GridReport) Complete() bool {
	for i := range r.Points {
		if r.Points[i].Status != StatusDone {
			return false
		}
	}
	return true
}

// Quarantined returns the poisoned points, in index order.
func (r *GridReport) Quarantined() []PointState {
	var out []PointState
	for _, p := range r.Points {
		if p.Status == StatusQuarantined {
			out = append(out, p)
		}
	}
	return out
}

// GridDigest merges the done points' digests in grid index order. For a
// Complete report it is byte-identical to SerialGridDigest of the same
// grid, however many workers ran it and however often it was interrupted
// and resumed.
func (r *GridReport) GridDigest() uint64 {
	var ds []uint64
	for i := range r.Points {
		if r.Points[i].Status == StatusDone {
			ds = append(ds, r.Points[i].Digest)
		}
	}
	return MergeDigests(ds)
}

// Run executes the grid's pending points once each on exp.Do and returns
// every point's final state. Run only returns an error for harness-level
// failures (a corrupt or mismatched manifest, an unwritable journal, a
// panic in PostPoint); the first of these starts no further point. A
// per-point failure, panics included, is contained and reported as a
// quarantined point in the GridReport.
func Run(g Grid, cfg Config) (*GridReport, error) {
	rep := &GridReport{Grid: g.Name, Points: make([]PointState, len(g.Points))}
	for i := range g.Points {
		rep.Points[i] = PointState{Key: g.Key(i), Index: i, Status: StatusPending}
	}

	var man *Manifest
	if cfg.Manifest != "" {
		var err error
		man, err = OpenManifest(cfg.Manifest, HeaderFor(g), cfg.Resume)
		if err != nil {
			return nil, err
		}
		man.fsync = cfg.Sync
		defer man.Close()
	}

	var pending []int
	for i := range rep.Points {
		if st, ok := man.State(rep.Points[i].Key); ok {
			st.Index = i
			st.Resumed = true
			rep.Points[i] = st
			rep.Resumed++
			continue
		}
		pending = append(pending, i)
	}
	rep.Ran = len(pending)

	// mu serialises the journal and PostPoint. stopped, once left set by
	// a journal error or a PostPoint panic, keeps every later job from
	// starting its point.
	var (
		mu      sync.Mutex
		stopped bool
	)
	o := g.Opts
	o.Parallel = 1
	errs := exp.Do(len(pending), cfg.Workers, func(k int) error {
		mu.Lock()
		skip := stopped
		mu.Unlock()
		if skip {
			return nil
		}
		st := &rep.Points[pending[k]]
		res, err := exp.SafeRunPoint(g.Points[st.Index], o)
		st.Attempts = 1
		if err != nil {
			st.Status = StatusQuarantined
			st.LastError = fmt.Sprintf("farm: point %s: %v", st.Key, err)
		} else {
			st.Status = StatusDone
			st.Digest = res.Digest
			st.Summary = summarize(res)
		}

		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return nil
		}
		stopped = true // until the record is written and PostPoint returns
		if err := man.AppendPoint(*st); err != nil {
			return err
		}
		if cfg.PostPoint != nil {
			cfg.PostPoint(*st)
		}
		stopped = false
		return nil
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("farm: point %s: %w", rep.Points[pending[k]].Key, err)
		}
	}
	return rep, nil
}

// SerialGridDigest runs the grid serially in a single process and merges
// the per-point digests — the reference value every farm execution of
// the same grid must reproduce.
func SerialGridDigest(g Grid) (uint64, error) {
	o := g.Opts
	o.Parallel = 1
	results, err := exp.RunPoints(g.Points, o)
	if err != nil {
		return 0, err
	}
	ds := make([]uint64, len(results))
	for i, r := range results {
		ds[i] = r.Digest
	}
	return MergeDigests(ds), nil
}

// Package farm is the fault-tolerant sweep runner: it executes any
// []exp.Point grid through a supervised in-process worker pool and an
// optional durable job manifest, so that the multi-thousand-point
// regeneration grids behind the paper's figures survive point panics,
// hung points, and whole-process crashes.
//
// Supervision means four things, in order of escalation:
//
//   - panic containment — a panic inside one point (an engine invariant
//     violation, a DrainError in one corner of the grid) is recovered
//     into a typed error carrying the point's identity; the rest of the
//     grid keeps running;
//   - deadlines — a point that exceeds Config.PointTimeout is abandoned
//     and treated as failed; its goroutine cannot be killed, so it runs
//     out its fixed window in the background and its result is dropped;
//   - retry with exponential backoff — a failed point is re-queued after
//     Backoff.Delay(attempt), so transient failures heal themselves;
//   - quarantine — after Config.MaxAttempts failures the point is marked
//     quarantined and the grid completes without it, reported but never
//     wedged.
//
// A whole-process crash is answered by the manifest: with Config.Manifest
// set, every terminal outcome is appended to a crash-safe JSONL journal
// (see manifest.go). Killing the process at any moment and re-running
// with Config.Resume skips the completed points;
// the per-point digests recorded in the manifest merge — in grid index
// order — into a grid digest that is byte-identical to a serial
// single-process run of the same grid, extending the serial≡parallel
// guarantee of exp.RunPoints to crash/resume execution.
package farm

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"photon/internal/core"
	"photon/internal/exp"
)

// Status is a point's position in the supervision state machine. The
// persisted states are pending (implicit: no terminal record), done and
// quarantined; "running" exists only in memory and is never written to
// the manifest, so a crash always resumes from a consistent state.
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

// PointState is the supervision state of one grid point.
type PointState struct {
	Key      string
	Index    int
	Status   Status
	Attempts int
	// Digest is the point's behavioural run digest (done points only).
	Digest  uint64
	Summary Summary
	// LastError describes the most recent failed attempt ("" once done).
	LastError string
	// Resumed marks a point whose terminal state was loaded from the
	// manifest rather than executed in this run.
	Resumed bool
}

// PointError is a failed attempt at one point, carrying its identity so
// a supervisor log line or quarantine report pinpoints the grid corner.
type PointError struct {
	Key     string
	Index   int
	Attempt int
	Err     error
}

func (e *PointError) Error() string {
	return fmt.Sprintf("farm: point %s (index %d, attempt %d): %v", e.Key, e.Index, e.Attempt, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// ErrPointTimeout marks an attempt abandoned after exceeding
// Config.PointTimeout.
var ErrPointTimeout = errors.New("farm: point deadline exceeded")

// Config tunes one farm run.
type Config struct {
	// Workers bounds concurrently executing points (0 = GOMAXPROCS).
	Workers int
	// MaxAttempts is the per-point attempt budget before quarantine
	// (0 = 3). Attempts recorded in a resumed manifest count against it.
	MaxAttempts int
	// Backoff is the retry schedule (zero value = 100ms base, 5s cap).
	Backoff Backoff
	// PointTimeout is the per-attempt deadline (0 = none). An attempt
	// that misses it is abandoned — its goroutine cannot be killed and
	// its eventual result is discarded.
	PointTimeout time.Duration
	// Manifest is the durable journal path ("" = in-memory only).
	Manifest string
	// Resume loads an existing manifest (matching it against the grid's
	// fingerprint) and skips its completed points. Without Resume an
	// existing manifest file is truncated.
	Resume bool
	// Sync fsyncs the manifest after every appended record. Plain
	// appends already survive a process kill; Sync extends that to
	// power loss at the cost of one fsync per point.
	Sync bool
	// PostPoint, when set, observes every state change the supervisor
	// records: a failed attempt (Status pending, LastError set), a
	// completed point, or a quarantined one. Called from the supervisor
	// goroutine, in completion order.
	PostPoint func(PointState)

	// sleep is the retry-delay clock, injectable by tests.
	sleep func(time.Duration)
}

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	cfg.Backoff = cfg.Backoff.withDefaults()
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	return cfg
}

// GridReport is the outcome of one farm run over a grid.
type GridReport struct {
	Grid string
	// Points holds every point's final state, in grid index order.
	Points []PointState
	// Ran counts points executed (or re-executed) by this run; Resumed
	// counts points whose completed state came from the manifest.
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

// outcome is one finished attempt, reported back to the supervisor.
type outcome struct {
	idx    int
	digest uint64
	sum    Summary
	err    error
}

// Run executes the grid under supervision and returns every point's
// final state. Run only returns an error for harness-level failures (a
// corrupt or mismatched manifest, an unwritable journal); per-point
// failures — panics included — are contained, retried, and at worst
// reported as quarantined points in the GridReport.
func Run(g Grid, cfg Config) (*GridReport, error) {
	cfg = cfg.withDefaults()
	rep := &GridReport{Grid: g.Name, Points: make([]PointState, len(g.Points))}
	for i := range g.Points {
		rep.Points[i] = PointState{Key: g.Key(i), Index: i, Status: StatusPending}
	}

	var man *Manifest
	if cfg.Manifest != "" {
		var err error
		man, err = OpenManifest(cfg.Manifest, HeaderFor(g, cfg), cfg.Resume)
		if err != nil {
			return nil, err
		}
		man.fsync = cfg.Sync
		defer man.Close()
		for i := range rep.Points {
			if st, ok := man.State(rep.Points[i].Key); ok {
				st.Index = i
				st.Resumed = st.Status == StatusDone || st.Status == StatusQuarantined
				rep.Points[i] = st
			}
		}
	}

	var pending []int
	for i := range rep.Points {
		switch rep.Points[i].Status {
		case StatusDone, StatusQuarantined:
			rep.Resumed++
		default:
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return rep, nil
	}
	rep.Ran = len(pending)

	post := func(st PointState) {
		if cfg.PostPoint != nil {
			cfg.PostPoint(st)
		}
	}

	// The supervisor loop: fill worker slots from the ready queue, absorb
	// outcomes, re-queue failures after their backoff, quarantine after
	// the attempt budget. Both channels are buffered to the full pending
	// count so an early (manifest-error) return never strands a worker or
	// retry timer on a blocked send.
	var (
		queue    = append([]int(nil), pending...)
		results  = make(chan outcome, len(pending))
		retries  = make(chan int, len(pending))
		inflight = 0
		terminal = 0
	)
	for terminal < len(pending) {
		for inflight < cfg.Workers && len(queue) > 0 {
			idx := queue[0]
			queue = queue[1:]
			rep.Points[idx].Attempts++
			inflight++
			go func(idx int) {
				d, sum, err := cfg.execPoint(g, idx)
				results <- outcome{idx: idx, digest: d, sum: sum, err: err}
			}(idx)
		}
		select {
		case o := <-results:
			inflight--
			st := &rep.Points[o.idx]
			if o.err == nil {
				st.Status = StatusDone
				st.Digest = o.digest
				st.Summary = o.sum
				st.LastError = ""
				terminal++
				if err := man.AppendPoint(*st); err != nil {
					return nil, err
				}
				post(*st)
				continue
			}
			perr := &PointError{Key: st.Key, Index: o.idx, Attempt: st.Attempts, Err: o.err}
			st.LastError = perr.Error()
			if st.Attempts >= cfg.MaxAttempts {
				st.Status = StatusQuarantined
				terminal++
				if err := man.AppendPoint(*st); err != nil {
					return nil, err
				}
				post(*st)
				continue
			}
			if err := man.AppendAttempt(st.Key, o.idx, st.Attempts, st.LastError); err != nil {
				return nil, err
			}
			post(*st)
			delay := cfg.Backoff.Delay(st.Attempts)
			go func(idx int) {
				cfg.sleep(delay)
				retries <- idx
			}(o.idx)
		case idx := <-retries:
			queue = append(queue, idx)
		}
	}
	return rep, nil
}

// execPoint runs one attempt in-process with panic containment. The
// deadline, if any, applies to the whole attempt.
func (cfg Config) execPoint(g Grid, idx int) (uint64, Summary, error) {
	run := func() (core.Result, error) {
		o := g.Opts
		o.Parallel = 1
		return exp.SafeRunPoint(g.Points[idx], o)
	}
	if cfg.PointTimeout <= 0 {
		res, err := run()
		if err != nil {
			return 0, Summary{}, err
		}
		return res.Digest, summarize(res), nil
	}
	type runResult struct {
		res core.Result
		err error
	}
	ch := make(chan runResult, 1)
	go func() {
		r, e := run()
		ch <- runResult{r, e}
	}()
	timer := time.NewTimer(cfg.PointTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, Summary{}, r.err
		}
		return r.res.Digest, summarize(r.res), nil
	case <-timer.C:
		// The attempt's goroutine cannot be killed; it is abandoned and
		// its buffered result, if any, is discarded.
		return 0, Summary{}, fmt.Errorf("%w after %v", ErrPointTimeout, cfg.PointTimeout)
	}
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

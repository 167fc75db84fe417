package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own drive loop around a call into a layer. A per-cycle call
// (Tick, Step) is not one span per call: the calls of a 500-cycle block
// are summed into one span whose Count is the number of calls, laid out
// back to back inside the block span that caused them.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       string `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(parent int, name, workload, op string) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: workload, Op: op,
		StartNs: r.now(), Count: 1,
	})
	return len(r.spans)
}

func (r *recorder) end(id int, count int64) {
	s := &r.spans[id-1]
	s.EndNs = r.now()
	s.Count = count
}

// child records an already-measured interval under parent, inheriting the
// parent's workload and op.
func (r *recorder) child(parent int, name string, start, dur, count int64) {
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: p.Workload, Op: p.Op,
		StartNs: start, EndNs: start + dur, Count: count,
	})
}

// time runs f inside a span.
func (r *recorder) time(parent int, name string, f func()) time.Duration {
	p := r.spans[parent-1]
	id := r.begin(parent, name, p.Workload, p.Op)
	f()
	r.end(id, 1)
	s := r.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name          string
	spans, count  int64
	total, selfNs int64
}

// selfTimes sums, per workload and span name, the span durations and the
// self time: a span's duration minus the part its child spans cover.
func (r *recorder) selfTimes(workload string) []selfRow {
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.Parent] += s.EndNs - s.StartNs
	}
	rows := map[string]*selfRow{}
	for _, s := range r.spans {
		if s.Workload != workload {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{name: s.Name}
			rows[s.Name] = row
		}
		d := s.EndNs - s.StartNs
		row.spans++
		row.count += s.Count
		row.total += d
		row.selfNs += d - covered[s.ID]
	}
	out := make([]selfRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfNs != out[j].selfNs {
			return out[i].selfNs > out[j].selfNs
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeChrome writes the spans as Chrome-trace JSON (complete events,
// microsecond timestamps), one thread per workload.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "count": s.Count},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return fmt.Errorf("bench: write spans: %w", err)
	}
	return nil
}

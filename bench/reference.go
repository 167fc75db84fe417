package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// referenceJSON is the held per-op simulated reference for seed 1 at full
// size, written by -write-reference. Drift against it is reported
// (core.digest_drift), never gated: the failure rules in workloads.go are
// what make an op fail.
//
//go:embed reference.json
var referenceJSON []byte

// referenceSeed is the only seed the reference holds.
const referenceSeed = 1

type refEntry struct {
	Digest     string  `json:"digest"` // %016x
	AvgLatency float64 `json:"avg_latency"`
	Throughput float64 `json:"throughput"`
	Delivered  int64   `json:"delivered"`
}

// reference maps "<workload>/<op key>" to the held values.
type reference map[string]refEntry

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("bench: reference.json: %w", err)
	}
	return ref, nil
}

// drift counts ops whose digest differs from the reference. The
// reference holds one seed at unshrunk windows; any other run has no
// reference and reports no drift.
func (p *prepared) drift(ops []op, results []opResult, ok []bool) int {
	if p.seed != referenceSeed || p.sz.windowDiv != 1 {
		return 0
	}
	n := 0
	for i, o := range ops {
		e, held := p.ref[p.w.name+"/"+o.key]
		if !held || !ok[i] {
			continue
		}
		if e.Digest != fmt.Sprintf("%016x", results[i].Digest) {
			n++
		}
	}
	return n
}

// writeReference runs every workload's op list once on the reference
// seed and writes the per-op simulated values to path.
func writeReference(path string, scratch *scratchDir) error {
	ref := reference{}
	for _, w := range workloads {
		p, err := prepare(w, referenceSeed, sizeFull)
		if err != nil {
			return err
		}
		for j := 0; j < p.rows; j++ {
			rr, err := p.runRow(0, j, scratch)
			if err != nil {
				return err
			}
			if len(rr.failures) > 0 {
				return fmt.Errorf("bench: %s: refusing to write a reference from failed ops: %s", w.name, rr.failures[0])
			}
			for i, o := range rr.ops {
				r := rr.results[i]
				ref[w.name+"/"+o.key] = refEntry{
					Digest:     fmt.Sprintf("%016x", r.Digest),
					AvgLatency: r.AvgLatency,
					Throughput: r.Throughput,
					Delivered:  r.Delivered,
				}
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write reference: %w", err)
	}
	return nil
}

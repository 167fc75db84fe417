package ptrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"photon/internal/core"
)

// chromeEvent is one entry of the Chrome trace-event JSON array
// (load the output at chrome://tracing or https://ui.perfetto.dev).
// Timestamps are simulator cycles, not microseconds: the viewers only
// need a monotone unit.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the trace as a Chrome trace-event JSON array:
// one complete ("X") slice per span phase, grouped by source node (pid)
// and packet id (tid), plus instant events for token captures and
// faults. Undelivered spans export their phase prefix; faulted spans
// export no phases (they have none) but keep their instants.
//
// Events are encoded one at a time — the array is several times the size
// of the trace it renders — into the bytes json.Encoder.Encode would
// produce for the whole slice.
func WriteChromeTrace(w io.Writer, tr *TraceResult) error {
	bw := bufio.NewWriter(w)
	sep := byte('[')
	var err error // the first failure; emit does nothing after it
	emit := func(e chromeEvent) {
		if err != nil {
			return
		}
		var b []byte
		if b, err = json.Marshal(&e); err != nil {
			return
		}
		bw.WriteByte(sep)
		sep = ','
		_, err = bw.Write(b)
	}
	// One args map per event kind, overwritten for each event.
	phaseArgs, setasideArgs := map[string]any{}, map[string]any{}
	for _, s := range tr.Spans {
		phaseArgs["dst"], phaseArgs["measured"] = s.Dst, s.Measured
		for _, p := range s.Phases {
			emit(chromeEvent{
				Name: p.Kind.String(), Phase: "X", TS: p.From, Dur: p.Len(),
				PID: s.Src, TID: s.ID, Args: phaseArgs,
			})
		}
		if s.Setaside > 0 {
			setasideArgs["cycles"] = s.Setaside
			emit(chromeEvent{
				Name: "setaside", Phase: "i", TS: s.Injected,
				PID: s.Src, TID: s.ID, Scope: "t", Args: setasideArgs,
			})
		}
	}
	tokenArgs := map[string]any{}
	for _, t := range tr.Tokens {
		node, home := core.TokenAux(t.Aux)
		tokenArgs["home"] = home
		emit(chromeEvent{
			Name: t.Type.String(), Phase: "i", TS: t.Cycle,
			PID: node, Scope: "t", Args: tokenArgs,
		})
	}
	faultArgs := map[string]any{}
	for _, f := range tr.Faults {
		faultArgs["aux"] = f.Aux
		emit(chromeEvent{Name: "fault", Phase: "i", TS: f.Cycle, Scope: "g", Args: faultArgs})
	}
	if err != nil {
		return err
	}
	if sep == '[' {
		bw.WriteByte('[') // no events: an empty array
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// WriteFlame renders the trace's aggregate attribution as folded stack
// lines ("frame;frame;frame cycles", one per line) — the input format of
// flame-graph builders. The stack root is the given label (typically the
// scheme name), split by local/remote delivery, with one leaf per phase;
// setaside residency appears as an extra annotated leaf because it
// overlaps the flight and handshake phases rather than joining the sum.
func WriteFlame(w io.Writer, tr *TraceResult, label string) error {
	var local, remote Attribution
	for _, s := range tr.Spans {
		if s.Local {
			local.AddSpan(s, false)
		} else {
			remote.AddSpan(s, false)
		}
	}
	emit := func(class string, a Attribution) error {
		for k := 0; k < NumPhases; k++ {
			if a.Phases[k] == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;%s;%s %d\n", label, class, PhaseKind(k), a.Phases[k]); err != nil {
				return err
			}
		}
		if a.Setaside > 0 {
			if _, err := fmt.Fprintf(w, "%s;%s;(setaside overlap) %d\n", label, class, a.Setaside); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("remote", remote); err != nil {
		return err
	}
	return emit("local", local)
}

package ptrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

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

// ChromeTrace writes a Chrome trace-event JSON array as a Stream hands
// over spans and meta records: set Span and Meta as the stream's OnSpan
// and OnMeta, and Close it after the stream. A span gives one complete
// ("X") slice per phase, grouped by source node (pid) and packet id (tid),
// plus a setaside instant (a faulted span has no phases; an undelivered
// one exports its prefix); a meta record gives a token or fault instant.
// Events go out one at a time in hand-over order, in the bytes
// json.Encoder.Encode gives the whole array; the viewers order events by
// timestamp, not array position.
type ChromeTrace struct {
	w    *bufio.Writer
	sep  byte
	args map[string]any // shared by every event: each is encoded before the next is built
	err  error          // the first failure; nothing is written after it
}

// NewChromeTrace returns a writer that opens its array on w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{w: bufio.NewWriter(w), sep: '[', args: map[string]any{}}
}

func (c *ChromeTrace) emit(e chromeEvent) {
	if c.err != nil {
		return
	}
	var b []byte
	if b, c.err = json.Marshal(&e); c.err != nil {
		return
	}
	c.w.WriteByte(c.sep)
	c.sep = ','
	_, c.err = c.w.Write(b)
}

// Span writes a span's phase slices and its setaside instant.
func (c *ChromeTrace) Span(s *PacketSpan) error {
	clear(c.args)
	c.args["dst"], c.args["measured"] = s.Dst, s.Measured
	for _, p := range s.Phases {
		c.emit(chromeEvent{Name: p.Kind.String(), Phase: "X", TS: p.From, Dur: p.Len(), PID: s.Src, TID: s.ID, Args: c.args})
	}
	if s.Setaside > 0 {
		clear(c.args)
		c.args["cycles"] = s.Setaside
		c.emit(chromeEvent{Name: "setaside", Phase: "i", TS: s.Injected, PID: s.Src, TID: s.ID, Scope: "t", Args: c.args})
	}
	return c.err
}

// Meta writes a packet-less record: a fault, or token motion at its node.
func (c *ChromeTrace) Meta(r Record) error {
	clear(c.args)
	if r.Type == core.EvFault {
		c.args["aux"] = r.Aux
		c.emit(chromeEvent{Name: "fault", Phase: "i", TS: r.Cycle, Scope: "g", Args: c.args})
		return c.err
	}
	node, home := core.TokenAux(r.Aux)
	c.args["home"] = home
	c.emit(chromeEvent{Name: r.Type.String(), Phase: "i", TS: r.Cycle, PID: node, Scope: "t", Args: c.args})
	return c.err
}

// Close ends the array ("[]" when no event was written) and flushes it.
func (c *ChromeTrace) Close() error {
	if c.err != nil {
		return c.err
	}
	if c.sep == '[' {
		c.w.WriteByte('[')
	}
	c.w.WriteString("]\n")
	return c.w.Flush()
}

// WriteFlame renders the attribution of a trace's local and of its remote
// spans (each folded with AddSpan, measuredOnly false) as folded stack
// lines "label;local|remote;phase cycles", the input of flame-graph
// builders. Setaside residency is an extra annotated leaf: it overlaps the
// flight and handshake phases rather than joining their sum.
func WriteFlame(w io.Writer, local, remote Attribution, label string) error {
	var b strings.Builder
	for _, c := range []struct {
		class string
		a     Attribution
	}{{"remote", remote}, {"local", local}} {
		for k, cycles := range c.a.Phases {
			if cycles != 0 {
				fmt.Fprintf(&b, "%s;%s;%s %d\n", label, c.class, PhaseKind(k), cycles)
			}
		}
		if c.a.Setaside > 0 {
			fmt.Fprintf(&b, "%s;%s;(setaside overlap) %d\n", label, c.class, c.a.Setaside)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Package core implements the paper's primary contribution: a
// cycle-accurate model of a ring-based MWSR nanophotonic network-on-chip
// under seven arbitration/flow-control schemes — the credit-based
// baselines (Token Channel, Token Slot) and the proposed handshake schemes
// (GHS and DHS, each optionally with setaside buffers, and DHS with
// circulation).
//
// The Network type is a scheme-agnostic cycle engine; everything
// per-scheme lives in the scheme's registry row (protocol.go) and the wire
// function it names, and the row also backs every trait accessor below.
// The engine wires together the substrates from the sibling packages: ring
// (optical timing), arbiter (token motion), flow (credit conservation) and
// router (electrical queues). One Network simulates all Nodes MWSR channels
// simultaneously, since sender-side head-of-line interactions couple the
// channels — the very effect the setaside and circulation techniques
// target.
package core

import (
	"fmt"
	"strings"

	"photon/internal/phys"
	"photon/internal/router"
)

// Scheme identifies an arbitration + flow-control scheme. Each value
// indexes the protocol registry (protocols in protocol.go); every trait
// accessor below reads the scheme's ProtocolSpec, so a new row needs no
// edits here beyond its constant.
type Scheme int

const (
	// TokenChannel is the global-arbitration baseline: one token per
	// channel carrying the home node's credit count (Vantrease MICRO'09).
	TokenChannel Scheme = iota
	// TokenSlot is the distributed-arbitration baseline: the home node
	// emits one-credit tokens while it has credits (Vantrease MICRO'09).
	TokenSlot
	// GHS is basic Global Handshake: credit-free global token, ACK/NACK
	// flow control, sent packet blocks the queue head until acknowledged.
	GHS
	// GHSSetaside is GHS with setaside buffers absorbing un-ACKed packets.
	GHSSetaside
	// DHS is basic Distributed Handshake: a fresh token every cycle,
	// ACK/NACK flow control, head blocked until acknowledged.
	DHS
	// DHSSetaside is DHS with setaside buffers.
	DHSSetaside
	// DHSCirculation is DHS where the receiver reinjects packets it cannot
	// buffer instead of dropping them; senders forget packets at launch
	// and no handshake waveguide exists.
	DHSCirculation
)

// Schemes lists every registered scheme in presentation order.
func Schemes() []Scheme {
	specs := RegisteredProtocols()
	out := make([]Scheme, len(specs))
	for i, sp := range specs {
		out[i] = sp.Scheme
	}
	return out
}

// GlobalGroup returns the global-arbitration schemes (the paper's
// Figure 8 comparison).
func GlobalGroup() []Scheme {
	var out []Scheme
	for _, sp := range RegisteredProtocols() {
		if sp.Global {
			out = append(out, sp.Scheme)
		}
	}
	return out
}

// DistributedGroup returns the distributed-arbitration schemes (the
// paper's Figure 9 comparison).
func DistributedGroup() []Scheme {
	var out []Scheme
	for _, sp := range RegisteredProtocols() {
		if !sp.Global {
			out = append(out, sp.Scheme)
		}
	}
	return out
}

func (s Scheme) String() string {
	if sp, ok := LookupProtocol(s); ok {
		return sp.Name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme converts a CLI name into a Scheme.
func ParseScheme(name string) (Scheme, error) {
	valid := make([]string, 0, len(protocols))
	for _, sp := range RegisteredProtocols() {
		if sp.Name == name {
			return sp.Scheme, nil
		}
		valid = append(valid, sp.Name)
	}
	return 0, fmt.Errorf("core: unknown scheme %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Global reports whether the scheme uses global arbitration (one relayed
// token) rather than distributed per-cycle token slots.
func (s Scheme) Global() bool {
	sp, _ := LookupProtocol(s)
	return sp.Global
}

// Handshake reports whether the scheme uses ACK/NACK flow control (and
// therefore a handshake waveguide).
func (s Scheme) Handshake() bool {
	sp, _ := LookupProtocol(s)
	return sp.Handshake
}

// CreditBased reports whether the scheme relies on credit flow control.
func (s Scheme) CreditBased() bool {
	sp, _ := LookupProtocol(s)
	return sp.CreditBased
}

// Circulating reports whether the receiver reinjects packets (DHS-cir).
func (s Scheme) Circulating() bool {
	sp, _ := LookupProtocol(s)
	return sp.Circulating
}

// SendPolicy returns the sender-side packet retention policy of the
// scheme (FireAndForget for unregistered values — the zero policy).
func (s Scheme) SendPolicy() router.SendPolicy {
	sp, _ := LookupProtocol(s)
	return sp.SendPolicy
}

// Hardware returns the scheme's hardware profile for Table I and the power
// model. The setaside variants share their base scheme's optical hardware
// (setaside buffers are electrical).
func (s Scheme) Hardware() phys.SchemeHardware {
	sp, ok := LookupProtocol(s)
	if !ok {
		panic("core: Hardware of invalid scheme")
	}
	return sp.Hardware
}

// PaperName returns the label used in the paper's figures.
func (s Scheme) PaperName() string {
	if sp, ok := LookupProtocol(s); ok {
		return sp.PaperName
	}
	return s.String()
}

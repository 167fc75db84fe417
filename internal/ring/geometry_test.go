package ring

import (
	"testing"
	"testing/quick"
)

// MustGeometry is NewGeometry for the known-good literals of these tests.
func MustGeometry(nodes, roundTrip int) *Geometry {
	g, err := NewGeometry(nodes, roundTrip)
	if err != nil {
		panic(err)
	}
	return g
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct {
		nodes, rt int
		ok        bool
	}{
		{64, 8, true}, {64, 4, true}, {64, 16, true}, {64, 32, true},
		{128, 16, true}, {8, 8, true}, {16, 1, true},
		{1, 1, false}, {64, 0, false}, {64, 7, false}, {64, 65, false},
	}
	for _, c := range cases {
		_, err := NewGeometry(c.nodes, c.rt)
		if (err == nil) != c.ok {
			t.Errorf("NewGeometry(%d,%d): err=%v, want ok=%v", c.nodes, c.rt, err, c.ok)
		}
	}
}

func TestMustGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGeometry with bad args did not panic")
		}
	}()
	MustGeometry(64, 7)
}

func TestOffsetInverse(t *testing.T) {
	g := MustGeometry(64, 8)
	for home := 0; home < 64; home += 7 {
		for node := 0; node < 64; node++ {
			off := g.Offset(home, node)
			if g.NodeAt(home, off) != node {
				t.Fatalf("NodeAt(Offset) not identity: home %d node %d off %d", home, node, off)
			}
			if node == home && off != 0 {
				t.Fatalf("Offset(home,home) = %d", off)
			}
		}
	}
}

func TestSegments(t *testing.T) {
	g := MustGeometry(64, 8)
	if g.NodesPerCycle() != 8 {
		t.Fatalf("NodesPerCycle = %d", g.NodesPerCycle())
	}
	cases := []struct{ p, seg int }{
		{1, 1}, {8, 1}, {9, 2}, {16, 2}, {57, 8}, {63, 8},
	}
	for _, c := range cases {
		if got := g.Segment(c.p); got != c.seg {
			t.Errorf("Segment(%d) = %d, want %d", c.p, got, c.seg)
		}
	}
}

func TestSegmentPanicsOutOfRange(t *testing.T) {
	g := MustGeometry(64, 8)
	for _, p := range []int{0, 64, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Segment(%d) did not panic", p)
				}
			}()
			g.Segment(p)
		}()
	}
}

// TestTokenSlotArrivalConstancy verifies the wave-pipelining identity the
// whole distributed design rests on: for every sender offset p, capture at
// emission+Segment(p) and flight of FlightToHome(p) land the packet at the
// home exactly R+1 cycles after token emission — one arrival slot per
// token, collision-free by construction.
func TestTokenSlotArrivalConstancy(t *testing.T) {
	for _, rt := range []int{4, 8, 16, 32} {
		g := MustGeometry(64, rt)
		for p := 1; p < 64; p++ {
			arrival := g.Segment(p) + g.FlightToHome(p)
			if arrival != rt+1 {
				t.Fatalf("R=%d offset %d: capture+flight = %d, want %d", rt, p, arrival, rt+1)
			}
		}
	}
}

func TestFlightBounds(t *testing.T) {
	g := MustGeometry(64, 8)
	for p := 1; p < 64; p++ {
		f := g.FlightToHome(p)
		if f < 1 || f > 8 {
			t.Fatalf("FlightToHome(%d) = %d outside [1,8]", p, f)
		}
	}
	// The node just downstream of home sends almost a full loop.
	if g.FlightToHome(1) != 8 {
		t.Fatalf("FlightToHome(1) = %d, want 8", g.FlightToHome(1))
	}
	// The node just upstream of home is one segment away.
	if g.FlightToHome(63) != 1 {
		t.Fatalf("FlightToHome(63) = %d, want 1", g.FlightToHome(63))
	}
}

// TestAckDelayIsRPlus1 pins the paper's §IV-C claim: the handshake answer
// reaches the sender exactly R+1 cycles after launch, independent of the
// sender's position — the property that makes 1-bit handshake messages
// with scheduled detector activation feasible.
func TestAckDelayIsRPlus1(t *testing.T) {
	for _, rt := range []int{4, 8, 16} {
		g := MustGeometry(64, rt)
		for p := 1; p < 64; p++ {
			sent := int64(100)
			arrived := sent + int64(g.FlightToHome(p))
			if got, want := g.HandshakeReturn(arrived, p), sent+int64(rt)+1; got != want {
				t.Fatalf("R=%d offset %d: handshake at %d, want %d", rt, p, got, want)
			}
		}
	}
}

func TestSweepCoversAllOffsets(t *testing.T) {
	g := MustGeometry(64, 8)
	seen := make([]bool, 64)
	for age := 1; age <= g.RoundTrip(); age++ {
		// A token of age a sweeps NodesPerCycle offsets from (a-1)*per+1.
		start := (age-1)*g.NodesPerCycle() + 1
		for i := 0; i < g.NodesPerCycle(); i++ {
			off := start + i
			if off < 64 {
				if seen[off] {
					t.Fatalf("offset %d swept twice", off)
				}
				seen[off] = true
				if g.Segment(off) != age {
					t.Fatalf("offset %d swept at age %d, Segment says %d", off, age, g.Segment(off))
				}
			}
		}
	}
	for p := 1; p < 64; p++ {
		if !seen[p] {
			t.Fatalf("offset %d never swept", p)
		}
	}
}

func TestOffsetProperty(t *testing.T) {
	g := MustGeometry(64, 8)
	f := func(homeRaw, nodeRaw uint8) bool {
		home, node := int(homeRaw)%64, int(nodeRaw)%64
		off := g.Offset(home, node)
		return off >= 0 && off < 64 && g.NodeAt(home, off) == node
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package phys

import (
	"math"
	"testing"
)

func TestDefaultShape(t *testing.T) {
	s := DefaultShape()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Cores() != 256 {
		t.Fatalf("Cores = %d, want 256", s.Cores())
	}
	if s.DataWaveguidesPerChannel() != 4 {
		t.Fatalf("DataWaveguidesPerChannel = %d, want 4 (256 bits / 64 lambda)", s.DataWaveguidesPerChannel())
	}
}

func TestShapeValidation(t *testing.T) {
	cases := []NetworkShape{
		{Nodes: 1, CoresPerNode: 4, FlitBits: 256},
		{Nodes: 64, CoresPerNode: 0, FlitBits: 256},
		{Nodes: 64, CoresPerNode: 4, FlitBits: 0},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid shape accepted: %+v", i, s)
		}
	}
}

func TestRingCircumference(t *testing.T) {
	// 400 mm^2 die -> 20 mm side -> 80 mm = 8 cm perimeter loop.
	got := DefaultShape().RingCircumferenceCM()
	if math.Abs(got-8.0) > 0.01 {
		t.Fatalf("circumference %.3f cm, want 8", got)
	}
}

// TestTableIMatchesPaper pins the component budget to the paper's Table I
// exactly: 256 data waveguides, 1 token waveguide, 0/1 handshake
// waveguides, and 1024K / 1028K / 1028K / 1040K micro-rings.
func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI(DefaultShape())
	want := []struct {
		scheme  string
		dataWG  int
		tokenWG int
		hsWG    int
		ringsK  int
	}{
		{"Token Slot", 256, 1, 0, 1024},
		{"GHS", 256, 1, 1, 1028},
		{"DHS", 256, 1, 1, 1028},
		{"DHS-cir", 256, 1, 0, 1040},
	}
	if len(rows) != len(want) {
		t.Fatalf("TableI rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Scheme != w.scheme || r.DataWaveguides != w.dataWG ||
			r.TokenWaveguides != w.tokenWG || r.HandshakeWaveguides != w.hsWG ||
			r.MicroRings != w.ringsK*1024 {
			t.Errorf("row %d: got %+v, want %+v", i, r, w)
		}
	}
}

// TestHandshakeOverheadIsTheClaimed0_4Percent checks the paper's headline
// hardware claim: the handshake waveguide costs 0.4% extra micro-rings,
// circulation about 1.5%.
func TestHandshakeOverheadIsTheClaimed0_4Percent(t *testing.T) {
	rows := TableI(DefaultShape())
	base := rows[0]
	if pct := 100 * rows[1].Overhead(base); math.Abs(pct-0.39) > 0.05 {
		t.Errorf("GHS ring overhead %.2f%%, want about 0.4%%", pct)
	}
	if pct := 100 * rows[3].Overhead(base); math.Abs(pct-1.56) > 0.1 {
		t.Errorf("DHS-cir ring overhead %.2f%%, want about 1.5%%", pct)
	}
}

func TestComponentBudgetScalesQuadratically(t *testing.T) {
	small := ComponentBudget(NetworkShape{Nodes: 32, CoresPerNode: 4, FlitBits: 256},
		SchemeHardware{Name: "x", Arbitration: DistributedArbitration})
	big := ComponentBudget(NetworkShape{Nodes: 64, CoresPerNode: 4, FlitBits: 256},
		SchemeHardware{Name: "x", Arbitration: DistributedArbitration})
	if big.MicroRings != 4*small.MicroRings {
		t.Fatalf("doubling nodes should 4x data rings: %d vs %d", big.MicroRings, small.MicroRings)
	}
}

func TestPathLossComposition(t *testing.T) {
	l := DefaultLossBudget()
	base := l.PathLossDB(0, 0)
	withWG := l.PathLossDB(8, 0)
	if math.Abs((withWG-base)-8.0) > 1e-9 {
		t.Fatalf("8 cm of waveguide should add 8 dB, added %.3f", withWG-base)
	}
	withRings := l.PathLossDB(0, 100)
	if math.Abs((withRings-base)-1.0) > 1e-9 {
		t.Fatalf("100 rings should add 1 dB, added %.3f", withRings-base)
	}
	polled := l.PolledPathLossDB(0, 0, 10)
	if math.Abs((polled-base)-10*l.PollTapDB) > 1e-9 {
		t.Fatalf("10 polled taps should add %.2f dB, added %.3f", 10*l.PollTapDB, polled-base)
	}
}

func TestLaserPowerMonotonicInLoss(t *testing.T) {
	m := DefaultLaserModel()
	short, err := m.PerWavelengthMW(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	long, err := m.PerWavelengthMW(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Fatalf("longer waveguide should need more laser: %.4f vs %.4f mW", long, short)
	}
}

func TestLaserNonlinearityLimit(t *testing.T) {
	m := DefaultLaserModel()
	// An absurdly long path must trip the 30 mW waveguide limit.
	if _, err := m.PerWavelengthMW(40, 100000); err == nil {
		t.Fatal("40 cm + 100k rings did not exceed the non-linearity limit")
	}
}

func TestThermalTuning(t *testing.T) {
	th := DefaultThermalTuning()
	// 1 uW/ring/K x 20 K x 1M rings = 20 W.
	got := th.HeatingWatts(1 << 20)
	if math.Abs(got-20.97) > 0.05 {
		t.Fatalf("heating for 1M rings = %.3f W, want about 20.97", got)
	}
}

func TestPow10Accuracy(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.5, 1, 1.294, 2, 2.9, 3.5} {
		got := pow10(x)
		want := math.Pow(10, x)
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("pow10(%.3f) = %.9g, want %.9g", x, got, want)
		}
	}
}

func TestSqrtMMAccuracy(t *testing.T) {
	for _, x := range []float64{1, 4, 100, 400, 576} {
		got := sqrtMM(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("sqrtMM(%.0f) = %.12f, want %.12f", x, got, want)
		}
	}
	if sqrtMM(0) != 0 || sqrtMM(-1) != 0 {
		t.Error("sqrtMM of non-positive should be 0")
	}
}

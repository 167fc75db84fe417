package trace

import (
	"strings"
	"testing"
)

func TestAnalyzeBasics(t *testing.T) {
	tr := sampleTrace()
	a := Analyze(tr)
	if a.App != "demo" || a.Records != 4 || a.Cycles != 100 {
		t.Fatalf("header wrong: %+v", a)
	}
	if a.Rate != tr.Rate() {
		t.Fatal("rate mismatch")
	}
	if a.PeakPerCycle != 2 { // two records at cycle 0
		t.Fatalf("peak %d", a.PeakPerCycle)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(&Trace{App: "empty", Cores: 4, Nodes: 4, Cycles: 10})
	if a.Records != 0 || a.VMR != 0 {
		t.Fatalf("%+v", a)
	}
}

func TestAnalyzeBurstyVsSmooth(t *testing.T) {
	smooth, _ := AppByName("blackscholes")
	bursty, _ := AppByName("nas-cg")
	as := Analyze(smooth.Synthesize(256, 64, 10000, 1))
	ab := Analyze(bursty.Synthesize(256, 64, 10000, 1))
	if ab.VMR <= as.VMR {
		t.Fatalf("nas-cg VMR %.1f not above blackscholes %.1f", ab.VMR, as.VMR)
	}
	if len(ab.HotNodes) == 0 {
		t.Fatal("nas-cg should show hot banks")
	}
	tab := AnalysisTable([]Analysis{as, ab})
	if !strings.Contains(tab.String(), "nas-cg") {
		t.Fatal("table missing app")
	}
}

func TestSlice(t *testing.T) {
	tr := sampleTrace()
	s, err := tr.slice(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 3 || s.Cycles != 10 {
		t.Fatalf("slice: %d records over %d cycles", len(s.Records), s.Cycles)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rebasing.
	s2, err := tr.slice(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Records[0].Cycle != 0 || s2.Records[1].Cycle != 94 {
		t.Fatalf("rebase wrong: %+v", s2.Records)
	}
	if _, err := tr.slice(50, 20); err == nil {
		t.Fatal("inverted slice accepted")
	}
	if _, err := tr.slice(0, 1000); err == nil {
		t.Fatal("overlong slice accepted")
	}
}

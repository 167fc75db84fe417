package trace

import (
	"strings"
	"testing"
)

func TestAnalyzeBasics(t *testing.T) {
	tr := sampleTrace()
	a := Analyze(tr)
	if a.App != "demo" || a.Records != 4 {
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
	if ab.HotNodes == 0 {
		t.Fatal("nas-cg should show hot banks")
	}
	tab := AnalysisTable([]Analysis{as, ab})
	if !strings.Contains(tab.String(), "nas-cg") {
		t.Fatal("table missing app")
	}
}

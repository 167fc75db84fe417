package farm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHeader(points int) Header {
	return Header{
		Version: ManifestVersion, Grid: "unit", Fingerprint: "00000000deadbeef",
		Points: points, Seed: 7,
		Warmup: 50, Measure: 200, Drain: 100,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	m, err := OpenManifest(path, testHeader(4), false)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	done := PointState{
		Key: "0000:j", Index: 0, Status: StatusDone, Attempts: 1, Digest: 0xABCDEF0123456789,
		Summary: Summary{Scheme: "dhs", AvgLatency: 12.5, Throughput: 0.03, Delivered: 42, DigestEvents: 99},
	}
	if err := m.AppendPoint(done); err != nil {
		t.Fatal(err)
	}
	quar := PointState{Key: "0002:q", Index: 2, Status: StatusQuarantined, Attempts: 1, LastError: "poison"}
	if err := m.AppendPoint(quar); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	md, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if md.TornTail {
		t.Fatal("clean manifest reported a torn tail")
	}
	if md.Header != testHeader(4) {
		t.Fatalf("header round-trip: %+v", md.Header)
	}
	st := md.States["0000:j"]
	if st.Status != StatusDone || st.Digest != done.Digest || st.Summary != done.Summary || st.Attempts != 1 {
		t.Fatalf("done state round-trip: %+v", st)
	}
	if _, ok := md.States["0001:k"]; ok {
		t.Fatal("a point without a record has a state")
	}
	st = md.States["0002:q"]
	if st.Status != StatusQuarantined || st.Attempts != 1 || st.LastError != "poison" {
		t.Fatalf("quarantine state round-trip: %+v", st)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	m, err := OpenManifest(path, testHeader(2), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendPoint(PointState{Key: "0000:a", Index: 0, Status: StatusDone, Attempts: 1, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendPoint(PointState{Key: "0001:b", Index: 1, Status: StatusDone, Attempts: 1, Digest: 2}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lastStart := bytes.LastIndexByte(clean[:len(clean)-1], '\n') + 1
	// A version-1 journal (per-attempt records, a retry budget) with a
	// valid frame.
	v1 := []byte(`1ceb98c1 {"kind":"header","header":{"v":1,"grid":"unit","fingerprint":"00000000deadbeef","points":2,"seed":7,"quick":false,"warmup":50,"measure":200,"drain":100,"maxAttempts":3}}` + "\n")
	cases := map[string][]byte{
		"v1 header":         v1,
		"empty file":        nil,
		"flipped byte":      flip(clean, len(clean)/2),
		"truncated header":  clean[:10],
		"headerless":        clean[bytes.IndexByte(clean, '\n')+1:],
		"mid-line truncate": append(append([]byte{}, clean[:lastStart+5]...), '\n'),
	}
	for name, data := range cases {
		if _, err := DecodeManifest(data); !errors.Is(err, ErrManifestCorrupt) {
			t.Errorf("%s: %v, want ErrManifestCorrupt", name, err)
		}
	}
	if _, err := DecodeManifest(v1); err == nil || !strings.Contains(err.Error(), "version 1, this build reads 2") {
		t.Errorf("v1 header: %v, want both versions named", err)
	}

	// Index outside the declared grid.
	m2path := filepath.Join(t.TempDir(), "m2.jsonl")
	m2, err := OpenManifest(m2path, testHeader(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.AppendPoint(PointState{Key: "0005:x", Index: 5, Status: StatusDone, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	if _, err := LoadManifest(m2path); !errors.Is(err, ErrManifestCorrupt) {
		t.Errorf("out-of-range index: %v, want ErrManifestCorrupt", err)
	}
}

func flip(data []byte, at int) []byte {
	out := append([]byte{}, data...)
	out[at] ^= 0x40
	return out
}

// TestManifestTornTail pins the one tolerated damage mode: a mid-append
// process kill leaves a newline-less final line, which load discards and
// a resume truncates away before appending.
func TestManifestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	h := testHeader(3)
	m, err := OpenManifest(path, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendPoint(PointState{Key: "0000:a", Index: 0, Status: StatusDone, Attempts: 1, Digest: 7}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Simulate the kill: half of a record, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"kind":"point","key":"0001:b","ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	md, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if !md.TornTail {
		t.Fatal("torn tail not reported")
	}
	if _, ok := md.States["0001:b"]; ok {
		t.Fatal("torn record leaked into states")
	}

	// Reopening for resume must truncate the torn bytes and append cleanly.
	m, err = OpenManifest(path, h, true)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if !m.TornTail {
		t.Fatal("open lost the torn-tail report")
	}
	if err := m.AppendPoint(PointState{Key: "0001:b", Index: 1, Status: StatusDone, Attempts: 1, Digest: 8}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	md, err = LoadManifest(path)
	if err != nil {
		t.Fatalf("reload after truncate+append: %v", err)
	}
	if md.TornTail {
		t.Fatal("tail still torn after truncation")
	}
	if st := md.States["0001:b"]; st.Status != StatusDone || st.Digest != 8 {
		t.Fatalf("appended record lost: %+v", st)
	}
	if st := md.States["0000:a"]; st.Status != StatusDone || st.Digest != 7 {
		t.Fatalf("pre-crash record lost: %+v", st)
	}
}

func TestOpenManifestResumeValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if m, err := OpenManifest(path, testHeader(2), false); err != nil {
		t.Fatal(err)
	} else {
		m.Close()
	}
	other := testHeader(2)
	other.Fingerprint = "1111111111111111"
	if _, err := OpenManifest(path, other, true); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
	if !strings.Contains(errString(OpenManifest(path, other, true)), "fingerprint") {
		t.Fatal("mismatch error does not explain itself")
	}
	// Resume with no existing file falls back to create.
	fresh := filepath.Join(t.TempDir(), "fresh.jsonl")
	m, err := OpenManifest(fresh, testHeader(2), true)
	if err != nil {
		t.Fatalf("resume-create: %v", err)
	}
	m.Close()
}

func errString(_ *Manifest, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

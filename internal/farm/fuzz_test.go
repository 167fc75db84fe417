package farm

import (
	"bytes"
	"os"
	"testing"
)

// FuzzManifestDecode hammers the manifest decoder with arbitrary bytes.
// The contract under fuzz: never panic, and on success every decoded
// state is internally consistent (key present, index inside the declared
// grid, terminal statuses only).
func FuzzManifestDecode(f *testing.F) {
	// Seed with a genuine manifest so the fuzzer starts from valid frames.
	valid := func() []byte {
		path := f.TempDir() + "/seed.jsonl"
		m, err := OpenManifest(path, Header{
			Version: ManifestVersion, Grid: "fuzz", Fingerprint: "00000000deadbeef",
			Points: 3, Seed: 7,
		}, false)
		if err != nil {
			f.Fatal(err)
		}
		if err := m.AppendPoint(PointState{Key: "0000:a", Index: 0, Status: StatusDone, Attempts: 1, Digest: 42}); err != nil {
			f.Fatal(err)
		}
		if err := m.AppendPoint(PointState{Key: "0002:c", Index: 2, Status: StatusQuarantined, Attempts: 1, LastError: "poison"}); err != nil {
			f.Fatal(err)
		}
		m.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("deadbeef {\"kind\":\"header\"}\n"))
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Repeat([]byte("a"), 100))

	f.Fuzz(func(t *testing.T, data []byte) {
		md, err := DecodeManifest(data)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if md.Header.Version != ManifestVersion || md.Header.Points <= 0 {
			t.Fatalf("accepted manifest with bad header: %+v", md.Header)
		}
		for key, st := range md.States {
			if key == "" || st.Key != key {
				t.Fatalf("state keyed inconsistently: %q vs %+v", key, st)
			}
			if st.Index < 0 || st.Index >= md.Header.Points {
				t.Fatalf("state index %d outside declared grid of %d", st.Index, md.Header.Points)
			}
			switch st.Status {
			case StatusDone, StatusQuarantined:
			default:
				t.Fatalf("state in unknown status %q", st.Status)
			}
		}
	})
}

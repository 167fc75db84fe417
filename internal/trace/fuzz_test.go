package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadBinary: ReadBinary never panics on arbitrary bytes (the header's
// counts are untrusted), and whatever it accepts is a valid trace that
// re-encodes to bytes parsing back to the same trace. The first encoding
// need not equal the input: varints have redundant spellings and the
// record fields are narrower than a varint.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := sampleTrace().WriteBinary(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-2])
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var enc bytes.Buffer
		if err := tr.WriteBinary(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, back)
		}
	})
}

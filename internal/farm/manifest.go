package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
)

// The manifest is a crash-safe JSONL journal. Line one is the header
// (grid name, fingerprint, point count, options); every later line
// records one finished point, done or quarantined. Each line is framed as
//
//	crc32(json-payload) SP json-payload LF
//
// and appended with a single write, so the only state a process kill can
// leave behind is one torn, newline-less final line. Decoding tolerates
// exactly that — the torn tail is discarded (and truncated away before
// the next append) — while any other damage (a bad checksum, malformed
// JSON on a complete line, an out-of-range index, a truncated header) is
// rejected with ErrManifestCorrupt: a manifest either replays exactly or
// loudly refuses to.

// ManifestVersion is the journal format version. Version 1 also held
// per-attempt records and a retry budget; a v1 journal is refused, not
// misread.
const ManifestVersion = 2

var (
	// ErrManifestCorrupt marks a manifest that failed validation while
	// decoding (anything beyond a torn final line).
	ErrManifestCorrupt = errors.New("farm: corrupt manifest")
	// ErrManifestMismatch marks a resume attempt against a manifest
	// recorded for a different grid (name, fingerprint or point count).
	ErrManifestMismatch = errors.New("farm: manifest does not match grid")
)

// Header identifies the grid a manifest belongs to.
type Header struct {
	Version     int    `json:"v"`
	Grid        string `json:"grid"`
	Fingerprint string `json:"fingerprint"` // %016x of Grid.Fingerprint
	Points      int    `json:"points"`
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	Warmup      int64  `json:"warmup"`
	Measure     int64  `json:"measure"`
	Drain       int64  `json:"drain"`
}

// HeaderFor builds the manifest header for a grid run.
func HeaderFor(g Grid) Header {
	return Header{
		Version:     ManifestVersion,
		Grid:        g.Name,
		Fingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
		Points:      len(g.Points),
		Seed:        g.Opts.Seed,
		Quick:       g.Opts.Quick,
		Warmup:      g.Opts.Window.Warmup,
		Measure:     g.Opts.Window.Measure,
		Drain:       g.Opts.Window.Drain,
	}
}

// manifestRec is one journal line.
type manifestRec struct {
	Kind    string   `json:"kind"` // "header" | "point"
	Header  *Header  `json:"header,omitempty"`
	Key     string   `json:"key,omitempty"`
	Index   int      `json:"index,omitempty"`
	Status  string   `json:"status,omitempty"`
	Digest  string   `json:"digest,omitempty"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}

// ManifestData is a decoded manifest snapshot: the header plus the
// replayed terminal states (keys absent from States are still pending).
type ManifestData struct {
	Header Header
	States map[string]PointState
	// TornTail reports that a newline-less final line — the signature of
	// a mid-append crash — was discarded during decoding.
	TornTail bool

	// validLen is the byte length of the intact prefix; an appender must
	// truncate the file here before writing.
	validLen int64
}

// DecodeManifest replays a manifest image into per-point states. It
// never panics on malformed input (the fuzz target pins that); every
// rejection wraps ErrManifestCorrupt with the offending line.
func DecodeManifest(data []byte) (*ManifestData, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrManifestCorrupt)
	}
	md := &ManifestData{States: make(map[string]PointState)}
	lineNo := 0
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// A torn final line: the one kind of damage a process kill
			// can inflict. The header must never be torn — a manifest
			// that lost line one identifies nothing.
			if lineNo == 0 {
				return nil, fmt.Errorf("%w: header line truncated", ErrManifestCorrupt)
			}
			md.TornTail = true
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		rec, err := decodeLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		if err := md.apply(rec, lineNo); err != nil {
			return nil, err
		}
		off += int64(nl + 1)
		lineNo++
	}
	md.validLen = off
	return md, nil
}

// decodeLine parses and checksum-verifies one complete journal line.
func decodeLine(line []byte, lineNo int) (manifestRec, error) {
	var rec manifestRec
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("%w: line %d: missing crc frame", ErrManifestCorrupt, lineNo+1)
	}
	want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("%w: line %d: bad crc field: %v", ErrManifestCorrupt, lineNo+1, err)
	}
	payload := line[sp+1:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return rec, fmt.Errorf("%w: line %d: crc mismatch (%08x != %08x)", ErrManifestCorrupt, lineNo+1, got, want)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("%w: line %d: %v", ErrManifestCorrupt, lineNo+1, err)
	}
	return rec, nil
}

// apply folds one record into the replayed states.
func (md *ManifestData) apply(rec manifestRec, lineNo int) error {
	if lineNo == 0 {
		if rec.Kind != "header" || rec.Header == nil {
			return fmt.Errorf("%w: line 1 is %q, want the header", ErrManifestCorrupt, rec.Kind)
		}
		if rec.Header.Version != ManifestVersion {
			return fmt.Errorf("%w: version %d, this build reads %d", ErrManifestCorrupt, rec.Header.Version, ManifestVersion)
		}
		if rec.Header.Points <= 0 {
			return fmt.Errorf("%w: header declares %d points", ErrManifestCorrupt, rec.Header.Points)
		}
		md.Header = *rec.Header
		return nil
	}
	switch rec.Kind {
	case "header":
		return fmt.Errorf("%w: line %d: second header", ErrManifestCorrupt, lineNo+1)
	case "point":
		if rec.Key == "" {
			return fmt.Errorf("%w: line %d: record without key", ErrManifestCorrupt, lineNo+1)
		}
		if rec.Index < 0 || rec.Index >= md.Header.Points {
			return fmt.Errorf("%w: line %d: index %d outside grid of %d points",
				ErrManifestCorrupt, lineNo+1, rec.Index, md.Header.Points)
		}
	default:
		return fmt.Errorf("%w: line %d: unknown record kind %q", ErrManifestCorrupt, lineNo+1, rec.Kind)
	}

	st := PointState{Key: rec.Key, Index: rec.Index, Status: Status(rec.Status), Attempts: 1}
	switch st.Status {
	case StatusDone:
		d, err := strconv.ParseUint(rec.Digest, 16, 64)
		if err != nil {
			return fmt.Errorf("%w: line %d: bad digest %q", ErrManifestCorrupt, lineNo+1, rec.Digest)
		}
		st.Digest = d
		if rec.Summary != nil {
			st.Summary = *rec.Summary
		}
	case StatusQuarantined:
		st.LastError = rec.Error
	default:
		return fmt.Errorf("%w: line %d: point record with status %q", ErrManifestCorrupt, lineNo+1, rec.Status)
	}
	md.States[rec.Key] = st
	return nil
}

// LoadManifest reads and decodes a manifest file.
func LoadManifest(path string) (*ManifestData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	md, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return md, nil
}

// Manifest is an open, appendable journal bound to one farm run.
type Manifest struct {
	// TornTail reports a discarded mid-append crash remnant from load.
	TornTail bool

	mu     sync.Mutex
	states map[string]PointState
	f      *os.File
	fsync  bool
}

// OpenManifest creates (resume=false) or loads-and-validates
// (resume=true, when the file exists) the journal at path. On resume the
// manifest must match the grid's header — same name, fingerprint and
// point count — and any torn tail is truncated away so the next append
// starts on a clean line boundary.
func OpenManifest(path string, h Header, resume bool) (*Manifest, error) {
	if resume {
		if _, err := os.Stat(path); err == nil {
			md, err := LoadManifest(path)
			if err != nil {
				return nil, err
			}
			if md.Header.Grid != h.Grid || md.Header.Fingerprint != h.Fingerprint || md.Header.Points != h.Points {
				return nil, fmt.Errorf("%w: %s records grid %q fingerprint %s (%d points), run is grid %q fingerprint %s (%d points)",
					ErrManifestMismatch, path,
					md.Header.Grid, md.Header.Fingerprint, md.Header.Points,
					h.Grid, h.Fingerprint, h.Points)
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			if err := f.Truncate(md.validLen); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return nil, err
			}
			return &Manifest{TornTail: md.TornTail, states: md.States, f: f}, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	m := &Manifest{states: make(map[string]PointState), f: f}
	if err := m.append(manifestRec{Kind: "header", Header: &h}); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// State returns the replayed state for a key, if the manifest holds one.
func (m *Manifest) State(key string) (PointState, bool) {
	if m == nil {
		return PointState{}, false
	}
	st, ok := m.states[key]
	return st, ok
}

// AppendPoint journals a terminal state (done or quarantined). It is a
// no-op on a nil receiver, so in-memory (manifest-less) farm runs share
// Run's code path unchanged.
func (m *Manifest) AppendPoint(st PointState) error {
	if m == nil {
		return nil
	}
	rec := manifestRec{Kind: "point", Key: st.Key, Index: st.Index, Status: string(st.Status)}
	switch st.Status {
	case StatusDone:
		rec.Digest = fmt.Sprintf("%016x", st.Digest)
		sum := st.Summary
		rec.Summary = &sum
	case StatusQuarantined:
		rec.Error = st.LastError
	default:
		return fmt.Errorf("farm: AppendPoint with non-terminal status %q", st.Status)
	}
	return m.append(rec)
}

// append frames, checksums and writes one record in a single write call.
func (m *Manifest) append(rec manifestRec) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(data), data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.f.WriteString(line); err != nil {
		return fmt.Errorf("farm: appending manifest record: %w", err)
	}
	if m.fsync {
		if err := m.f.Sync(); err != nil {
			return fmt.Errorf("farm: syncing manifest: %w", err)
		}
	}
	return nil
}

// Close releases the journal's file handle.
func (m *Manifest) Close() error {
	if m == nil || m.f == nil {
		return nil
	}
	return m.f.Close()
}

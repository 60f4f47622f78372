package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

// The read half of persist.FileStore as the build at commit ae7000a
// had it — the last build whose checkpoints rewrote the whole
// transcript — copied verbatim but for the names below, so a test can
// check that that build still reads what this one writes. Never edit
// the function bodies: they are the reference, not code under test.
// Renamed: FileStore → parentStore, Record → parentRecord, Version →
// parentVersion, walLine → parentWALLine; ValidID is persist's.

const parentVersion = 2

type parentRecord struct {
	Version      int                `json:"version"`
	Config       json.RawMessage    `json:"config"`
	Elicitations []core.Elicitation `json:"elicitations"`
	Image        []byte             `json:"image,omitempty"`
}

type parentWALLine struct {
	Seq int `json:"seq"`
	core.Elicitation
}

type parentStore struct{ dir string }

func (f *parentStore) snapPath(id string) string { return filepath.Join(f.dir, id+".snap") }
func (f *parentStore) walPath(id string) string  { return filepath.Join(f.dir, id+".wal") }

// Load implements Store.
func (f *parentStore) Load(id string) (parentRecord, bool, error) {
	if !persist.ValidID(id) {
		return parentRecord{}, false, nil
	}
	buf, err := os.ReadFile(f.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return parentRecord{}, false, nil
	}
	if err != nil {
		return parentRecord{}, false, fmt.Errorf("persist: %w", err)
	}
	var rec parentRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		return parentRecord{}, false, fmt.Errorf("persist: corrupt checkpoint for session %q: %w", id, err)
	}
	if rec.Version > parentVersion {
		return parentRecord{}, false, fmt.Errorf(
			"persist: session %q was written with encoding version %d, newer than this build supports (max %d)",
			id, rec.Version, parentVersion)
	}
	if err := f.mergeWAL(id, &rec); err != nil {
		return parentRecord{}, false, err
	}
	return rec, true, nil
}

// mergeWAL appends the session's WAL entries onto rec.Elicitations.
func (f *parentStore) mergeWAL(id string, rec *parentRecord) error {
	buf, err := os.ReadFile(f.walPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	lines := bytes.Split(buf, []byte("\n"))
	for i, raw := range lines {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line parentWALLine
		if err := json.Unmarshal(raw, &line); err != nil {
			if i == len(lines)-1 {
				// Torn tail: the crash interrupted the final append.
				// The elicitation was never acknowledged to a client
				// (appends complete before the HTTP response), so
				// dropping it recovers the previous consistent state.
				return nil
			}
			return fmt.Errorf("persist: corrupt WAL for session %q at line %d: %w", id, i+1, err)
		}
		switch {
		case line.Seq < len(rec.Elicitations):
			// Stale entry already covered by the checkpoint (crash
			// between checkpoint rename and WAL truncation).
		case line.Seq == len(rec.Elicitations):
			rec.Elicitations = append(rec.Elicitations, line.Elicitation)
		default:
			return fmt.Errorf("persist: WAL gap for session %q: seq %d after %d elicitations",
				id, line.Seq, len(rec.Elicitations))
		}
	}
	return nil
}

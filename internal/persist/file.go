package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"factcheck/internal/core"
)

// FileStore persists each session as two files under one directory:
//
//	<id>.snap   checkpoint: a JSON Record (atomically replaced via
//	            <id>.snap.tmp + rename)
//	<id>.wal    write-ahead log: one JSON line per elicitation appended
//	            since the checkpoint, each carrying its absolute
//	            transcript index
//
// Load merges checkpoint and WAL by sequence number and tolerates a
// torn final WAL line (the partial write of a crash mid-append); any
// earlier undecodable line, or a sequence gap, is reported as
// corruption. A checkpoint empties the WAL and leaves it in place; a
// crash between the checkpoint rename and the WAL truncation leaves
// stale WAL entries behind, whose sequence numbers fall below the
// checkpoint length, so Load skips them.
type FileStore struct {
	dir string

	// next caches each session's on-disk transcript length so Append can
	// validate its sequence number without re-reading the files: an
	// append below the length is a no-op, above it an error — the same
	// contract MemStore enforces, which lets the serving layer heal a
	// missed append with a full checkpoint instead of silently writing a
	// gapped (hence unloadable) WAL. Populated lazily from disk on the
	// first append of a session this process did not checkpoint.
	mu   sync.Mutex
	next map[string]int
}

// NewFileStore creates (if necessary) dir and returns a store over it.
// Every append and checkpoint is fsynced (the file, and for renames,
// removals and new files the directory), so records are durable against
// machine crashes, not just process death.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, errors.New("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &FileStore{dir: dir, next: make(map[string]int)}, nil
}

// Dir returns the store's directory.
func (f *FileStore) Dir() string { return f.dir }

// Location identifies the store by its absolute directory (Locator);
// two FileStores on the same directory share records. Falls back to
// the raw configured path if it cannot be made absolute.
func (f *FileStore) Location() string {
	abs, err := filepath.Abs(f.dir)
	if err != nil {
		return f.dir
	}
	return abs
}

// ValidID is the one rule for session ids: 1 to 64 characters of
// [A-Za-z0-9_-]. Ids become file names here and path segments in the
// API, so anything else (a path separator, say) is rejected rather than
// interpreted.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

func (f *FileStore) snapPath(id string) string { return filepath.Join(f.dir, id+".snap") }
func (f *FileStore) walPath(id string) string  { return filepath.Join(f.dir, id+".wal") }

// walLine is one WAL entry: the elicitation plus its absolute index in
// the transcript.
type walLine struct {
	Seq int `json:"seq"`
	core.Elicitation
}

// Checkpoint implements Store.
func (f *FileStore) Checkpoint(id string, rec Record) error {
	if !ValidID(id) {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	rec.Version = Version
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	buf = append(buf, '\n')
	tmp := f.snapPath(id) + ".tmp"
	if err := f.writeFile(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.snapPath(id)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// The WAL is now redundant, and is emptied rather than removed: it
	// then exists from a session's first checkpoint on, with a durable
	// directory entry, so an append never creates one (an fsynced append
	// to a file whose entry is not durable can vanish with it). The one
	// directory sync covers the rename and, the first time, the new WAL
	// entry; the truncation comes after it, so the old entries go only
	// once the checkpoint that covers them is durable — and it need not
	// be durable itself: entries left behind by a crash right here fall
	// below the checkpoint length and Load skips them.
	wal, err := os.OpenFile(f.walPath(id), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer wal.Close() // nothing is written through it
	if err := f.syncDir(); err != nil {
		return err
	}
	if err := wal.Truncate(0); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	f.mu.Lock()
	f.next[id] = len(rec.Elicitations)
	f.mu.Unlock()
	return nil
}

func (f *FileStore) writeFile(path string, buf []byte) error {
	file, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return writeSynced(file, buf)
}

// writeSynced writes buf to file, fsyncs and closes it.
func writeSynced(file *os.File, buf []byte) error {
	_, err := file.Write(buf)
	if err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// syncDir makes renames, removals and new directory entries durable.
func (f *FileStore) syncDir() error {
	d, err := os.Open(f.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// Append implements Store. Each append opens, writes and closes the WAL
// file: no cached handles means a crashed process leaves nothing to
// recover but the files themselves, and an answer's cost is dominated by
// inference, not by the open. The sequence number is validated against
// the on-disk transcript length (cached after the first touch): appends
// the checkpoint already covers are skipped, and a gap is rejected here
// — before the line is written — so a caller that missed an earlier
// append learns immediately and can repair with a full Checkpoint
// instead of persisting an unloadable WAL.
func (f *FileStore) Append(id string, seq int, e core.Elicitation) error {
	if !ValidID(id) {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	n, err := f.diskLen(id)
	if err != nil {
		return err
	}
	switch {
	case seq < n:
		// Already covered by the checkpoint (a re-append after a
		// recovered partial failure); idempotent.
		return nil
	case seq > n:
		return fmt.Errorf("persist: append gap for session %q: seq %d after %d elicitations", id, seq, n)
	}
	line, err := json.Marshal(walLine{Seq: seq, Elicitation: e})
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	line = append(line, '\n')
	// Every checkpoint leaves the WAL in place, so it is there — except
	// in a directory written by a build whose checkpoints removed it;
	// creating it here then costs the directory sync that makes the new
	// entry (and with it this append) durable.
	file, err := os.OpenFile(f.walPath(id), os.O_APPEND|os.O_WRONLY, 0o644)
	created := errors.Is(err, fs.ErrNotExist)
	if created {
		file, err = os.OpenFile(f.walPath(id), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := writeSynced(file, line); err != nil {
		return err
	}
	if created {
		if err := f.syncDir(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	f.next[id] = n + 1
	f.mu.Unlock()
	return nil
}

// diskLen returns the session's current on-disk transcript length
// (checkpoint plus WAL), from the cache when this process has touched
// the session before, otherwise by loading the record.
func (f *FileStore) diskLen(id string) (int, error) {
	f.mu.Lock()
	n, ok := f.next[id]
	f.mu.Unlock()
	if ok {
		return n, nil
	}
	rec, found, err := f.Load(id)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	n = len(rec.Elicitations)
	f.mu.Lock()
	f.next[id] = n
	f.mu.Unlock()
	return n, nil
}

// Load implements Store.
func (f *FileStore) Load(id string) (Record, bool, error) {
	if !ValidID(id) {
		return Record{}, false, nil
	}
	buf, err := os.ReadFile(f.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, fmt.Errorf("persist: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return Record{}, false, fmt.Errorf("persist: corrupt checkpoint for session %q: %w", id, err)
	}
	if rec.Version > Version {
		return Record{}, false, fmt.Errorf(
			"persist: session %q was written with encoding version %d, newer than this build supports (max %d)",
			id, rec.Version, Version)
	}
	if err := f.mergeWAL(id, &rec); err != nil {
		return Record{}, false, err
	}
	return rec, true, nil
}

// mergeWAL appends the session's WAL entries onto rec.Elicitations.
func (f *FileStore) mergeWAL(id string, rec *Record) error {
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
		var line walLine
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

// Delete implements Store.
func (f *FileStore) Delete(id string) error {
	if !ValidID(id) {
		return nil
	}
	for _, p := range []string{f.walPath(id), f.snapPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := f.syncDir(); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.next, id)
	f.mu.Unlock()
	return nil
}

// List implements Store. Only checkpointed sessions are listed: an
// orphan WAL (impossible under the serving layer's checkpoint-at-open
// discipline) is not a loadable session.
func (f *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := strings.CutSuffix(e.Name(), ".snap"); ok && ValidID(id) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Close implements Store. FileStore holds no open handles between
// operations, so Close has nothing to release.
func (f *FileStore) Close() error { return nil }

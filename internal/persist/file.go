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
//	<id>.wal    the transcript: one JSON line per record, seq 0 first,
//	            each line written and fsynced once (rewriteWAL aside)
//	<id>.snap   the checkpoint: configuration, state image and the
//	            number of records it vouches for (a snapFile, atomically
//	            replaced via <id>.snap.tmp + rename)
//
// A checkpoint therefore writes O(image) bytes: the records it is
// handed that the WAL lacks are appended to the WAL (and fsynced) before
// the snap is renamed, so a snap never vouches for a record the WAL does
// not hold, and a crash between the two leaves the previous snap over a
// longer transcript — a state core.RestoreSession handles by replaying
// the records behind the image (its header names the transcript length
// and digest it is the state after).
//
// Load merges snap and WAL by sequence number and tolerates a torn final
// WAL line (an unterminated fragment: the partial write of a crash
// mid-append); any earlier undecodable line, a sequence gap, or a WAL
// holding fewer records than the snap vouches for is reported as
// corruption. Before its first write to a session the store cuts a torn
// tail off the file, so an append never glues onto one.
//
// Directories written before this layout hold the transcript up to the
// checkpoint in the snap and only the records after it in the WAL
// (legacy layout; stale WAL lines below the snap's length are skipped).
// Load and Append work on it as they always did; the next Checkpoint
// rewrites the WAL whole, from seq 0, once.
type FileStore struct {
	dir string

	// wal caches, per session this process has touched, what the
	// session's WAL holds, so Append and Checkpoint validate sequence
	// numbers without re-reading the files. An entry is trusted only
	// while the WAL's size still equals the one it records: a store
	// sharing the directory that wrote to the session, or a write of
	// this one that failed part-way, invalidates it.
	mu  sync.Mutex
	wal map[string]walState

	// fault, when set (export_test.go), runs before every filesystem
	// step a write takes and fails that step when it returns an error.
	fault func(step string) error
}

// walState is what one session's WAL holds.
type walState struct {
	known bool  // a snap exists: the session is stored
	next  int   // the transcript's length, the seq the next record gets
	size  int64 // the WAL's byte length, every line complete; -1: no WAL
	// whole: the WAL holds the transcript from seq 0, one line per
	// record, and the snap none of it. Otherwise (a legacy layout, an
	// orphan WAL without a snap) a checkpoint rewrites the WAL whole.
	whole bool
}

// snapFile is the on-disk form of a checkpoint. A build before
// image-only checkpoints wrote the transcript up to the checkpoint into
// Elicitations and no Records; this build writes Records and no
// Elicitations. Both read back through one merge (mergeWAL), and the
// parent build's Load, which ignores Records, decodes this build's
// directories into the same Record.
type snapFile struct {
	Version      int                `json:"version"`
	Config       json.RawMessage    `json:"config"`
	Elicitations []core.Elicitation `json:"elicitations,omitempty"`
	Image        []byte             `json:"image,omitempty"`
	// Records is the transcript length the checkpoint vouches for: the
	// WAL holds at least this many records.
	Records int `json:"records,omitempty"`
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
	return &FileStore{dir: dir, wal: make(map[string]walState)}, nil
}

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

// appendLines appends the WAL lines of es, the first at seq from.
func appendLines(buf []byte, from int, es []core.Elicitation) ([]byte, error) {
	for i, e := range es {
		line, err := json.Marshal(walLine{Seq: from + i, Elicitation: e})
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		buf = append(append(buf, line...), '\n')
	}
	return buf, nil
}

// Checkpoint implements Store. The records the WAL lacks are appended
// to it — or, when the WAL does not hold the transcript from seq 0 or
// rec.From is below its end, a whole new WAL replaces it — and made
// durable before the snap's rename; the snap itself carries no record.
func (f *FileStore) Checkpoint(id string, rec Record) error {
	if !ValidID(id) {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	st, err := f.state(id)
	if err != nil && rec.From > 0 {
		return err
	}
	// A checkpoint handed the whole transcript needs nothing of what the
	// store holds: an unreadable WAL or snap is replaced, not reported.
	if err != nil {
		st = walState{}
	}
	if rec.From < 0 || rec.From > st.next {
		return gapError(id, rec.From, st.next)
	}
	n := rec.From + len(rec.Elicitations)
	// The snap's rename is made durable only when it creates the session
	// or its WAL is new. Otherwise a rename a power loss undoes leaves
	// the previous snap over the same WAL: an older image, no record lost.
	syncRename := !st.known || st.size < 0
	if st.whole && rec.From == st.next {
		if st.size, err = f.appendWAL(id, st.size, rec.From, rec.Elicitations); err != nil {
			return err
		}
	} else if st.size, err = f.rewriteWAL(id, rec); err != nil {
		return err
	}
	snap := snapFile{Version: Version, Config: rec.Config, Image: rec.Image, Records: n}
	buf, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	tmp := f.snapPath(id) + ".tmp"
	if err := f.writeNew(tmp, append(buf, '\n')); err != nil {
		return err
	}
	if err := f.rename(tmp, f.snapPath(id)); err != nil {
		return err
	}
	if syncRename {
		if err := f.syncDir(); err != nil {
			return err
		}
	}
	f.remember(id, walState{known: true, next: n, size: st.size, whole: true})
	return nil
}

// appendWAL appends es, the records from seq from on, to the session's
// WAL of size bytes (-1: none yet) and returns its new size. The WAL is
// created when missing, so it exists from a session's first checkpoint
// on and an append never has to create its directory entry; when the
// new file holds records, the entry is made durable before the caller
// renames a snap that vouches for them.
func (f *FileStore) appendWAL(id string, size int64, from int, es []core.Elicitation) (int64, error) {
	created := size < 0
	if !created && len(es) == 0 {
		return size, nil
	}
	buf, err := appendLines(nil, from, es)
	if err != nil {
		return 0, err
	}
	file, err := f.open(f.walPath(id), os.O_CREATE|os.O_APPEND|os.O_WRONLY)
	if err != nil {
		return 0, err
	}
	if len(buf) == 0 {
		// A new, empty WAL: the caller's directory sync after the snap's
		// rename makes its entry durable.
		return 0, file.Close()
	}
	if err := f.writeSynced(file, buf); err != nil {
		return 0, err
	}
	if created {
		if err := f.syncDir(); err != nil {
			return 0, err
		}
	}
	return max(size, 0) + int64(len(buf)), nil
}

// rewriteWAL replaces the session's WAL with the whole transcript rec
// sets — the first rec.From records the store holds, then
// rec.Elicitations — via a temporary file, fsync, rename and directory
// sync, and returns its size. It serves a legacy layout's conversion,
// an orphan WAL under a new session, and a checkpoint that replaces
// records the WAL already holds.
func (f *FileStore) rewriteWAL(id string, rec Record) (int64, error) {
	var prefix []core.Elicitation
	if rec.From > 0 {
		held, ok, err := f.Load(id)
		if err != nil {
			return 0, err
		}
		if !ok || len(held.Elicitations) < rec.From {
			return 0, gapError(id, rec.From, len(held.Elicitations))
		}
		prefix = held.Elicitations[:rec.From]
	}
	buf, err := appendLines(nil, 0, prefix)
	if err == nil {
		buf, err = appendLines(buf, rec.From, rec.Elicitations)
	}
	if err != nil {
		return 0, err
	}
	tmp := f.walPath(id) + ".tmp"
	if err := f.writeNew(tmp, buf); err != nil {
		return 0, err
	}
	if err := f.rename(tmp, f.walPath(id)); err != nil {
		return 0, err
	}
	if err := f.syncDir(); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// Append implements Store. Each append opens, writes and closes the WAL
// file: no cached handles means a crashed process leaves nothing to
// recover but the files themselves, and an answer's cost is dominated by
// inference, not by the open. The sequence number is validated against
// the stored transcript length (cached after the first touch): appends
// the store already covers are skipped, and a gap is rejected here —
// before the line is written — so a caller that missed an earlier
// append learns immediately and can repair with a Checkpoint instead of
// persisting an unloadable WAL.
func (f *FileStore) Append(id string, seq int, e core.Elicitation) error {
	if !ValidID(id) {
		return fmt.Errorf("persist: invalid session id %q", id)
	}
	st, err := f.state(id)
	if err != nil {
		return err
	}
	switch {
	case !st.known:
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	case seq < st.next:
		// Already covered (a re-append after a recovered partial
		// failure); idempotent.
		return nil
	case seq > st.next:
		return fmt.Errorf("persist: append gap for session %q: seq %d after %d elicitations", id, seq, st.next)
	}
	line, err := appendLines(nil, seq, []core.Elicitation{e})
	if err != nil {
		return err
	}
	// Every checkpoint leaves the WAL in place, so it is there — except
	// in a directory written by a build whose checkpoints removed it;
	// creating it here then costs the directory sync that makes the new
	// entry (and with it this append) durable.
	created := st.size < 0
	flag := os.O_APPEND | os.O_WRONLY
	if created {
		flag |= os.O_CREATE
	}
	file, err := f.open(f.walPath(id), flag)
	if err != nil {
		return err
	}
	if err := f.writeSynced(file, line); err != nil {
		return err
	}
	if created {
		if err := f.syncDir(); err != nil {
			return err
		}
	}
	st.next++
	st.size = max(st.size, 0) + int64(len(line))
	f.remember(id, st)
	return nil
}

// state returns what the session's WAL holds: from the cache while the
// WAL's size matches it, otherwise read from disk — and then a torn
// tail is cut off the WAL (truncated to its last complete line and
// fsynced) before the caller writes behind it. Only a stored session's
// state is cached.
func (f *FileStore) state(id string) (walState, error) {
	size := int64(-1)
	switch fi, err := os.Stat(f.walPath(id)); {
	case err == nil:
		size = fi.Size()
	case !errors.Is(err, fs.ErrNotExist):
		return walState{}, fmt.Errorf("persist: %w", err)
	}
	f.mu.Lock()
	st, ok := f.wal[id]
	f.mu.Unlock()
	if ok && st.size == size {
		return st, nil
	}
	snap, known, err := f.readSnap(id)
	if err != nil {
		return walState{}, err
	}
	wal, err := f.readWAL(id)
	if err != nil {
		return walState{}, err
	}
	st = walState{known: known, size: -1, whole: len(wal) == 0}
	if size >= 0 {
		st.size = int64(len(wal))
	}
	if known {
		m, err := mergeWAL(id, snap, wal)
		if err != nil {
			return walState{}, err
		}
		st.next = len(m.recs)
		st.whole = len(snap.Elicitations) == 0 && m.lines == st.next
		if m.good < st.size {
			if err := f.truncate(f.walPath(id), m.good); err != nil {
				return walState{}, err
			}
			st.size = m.good
		}
		f.remember(id, st)
	}
	return st, nil
}

func (f *FileStore) remember(id string, st walState) {
	f.mu.Lock()
	f.wal[id] = st
	f.mu.Unlock()
}

// Load implements Store.
func (f *FileStore) Load(id string) (Record, bool, error) {
	if !ValidID(id) {
		return Record{}, false, nil
	}
	snap, ok, err := f.readSnap(id)
	if err != nil || !ok {
		return Record{}, false, err
	}
	wal, err := f.readWAL(id)
	if err != nil {
		return Record{}, false, err
	}
	m, err := mergeWAL(id, snap, wal)
	if err != nil {
		return Record{}, false, err
	}
	return Record{Version: snap.Version, Config: snap.Config, Elicitations: m.recs, Image: snap.Image}, true, nil
}

// readSnap reads the session's checkpoint; ok = false when there is none.
func (f *FileStore) readSnap(id string) (snap snapFile, ok bool, err error) {
	buf, err := os.ReadFile(f.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return snap, false, nil
	}
	if err != nil {
		return snap, false, fmt.Errorf("persist: %w", err)
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		return snap, false, fmt.Errorf("persist: corrupt checkpoint for session %q: %w", id, err)
	}
	switch {
	case snap.Version > Version:
		return snap, false, fmt.Errorf(
			"persist: session %q was written with encoding version %d, newer than this build supports (max %d)",
			id, snap.Version, Version)
	case snap.Records < 0:
		return snap, false, fmt.Errorf("persist: corrupt checkpoint for session %q: vouches for %d records", id, snap.Records)
	}
	return snap, true, nil
}

// readWAL returns the session's WAL bytes; none when there is no WAL.
func (f *FileStore) readWAL(id string) ([]byte, error) {
	buf, err := os.ReadFile(f.walPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return buf, nil
}

// merged is a transcript read back from a snap and its WAL.
type merged struct {
	recs  []core.Elicitation
	lines int   // complete, non-blank WAL lines
	good  int64 // end of the WAL's last complete line
}

// mergeWAL appends the WAL's records onto the snap's (a legacy layout's
// transcript prefix; none in this layout) by sequence number. A line is
// complete once its newline is written: an unterminated final fragment
// is a torn append — its HTTP response was never sent, since appends
// complete before it — and is dropped; an undecodable complete line, a
// gap, or fewer records than the snap vouches for is corruption.
func mergeWAL(id string, snap snapFile, wal []byte) (merged, error) {
	m := merged{recs: snap.Elicitations}
	for i := 1; ; i++ {
		end := bytes.IndexByte(wal[m.good:], '\n')
		if end < 0 {
			break
		}
		raw := wal[m.good : m.good+int64(end)]
		m.good += int64(end) + 1
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line walLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return m, fmt.Errorf("persist: corrupt WAL for session %q at line %d: %w", id, i, err)
		}
		m.lines++
		switch {
		case line.Seq < len(m.recs):
			// Stale entry already covered by a legacy snap (a crash
			// between its rename and the WAL truncation that followed).
		case line.Seq == len(m.recs):
			m.recs = append(m.recs, line.Elicitation)
		default:
			return m, fmt.Errorf("persist: WAL gap for session %q: seq %d after %d elicitations",
				id, line.Seq, len(m.recs))
		}
	}
	if len(m.recs) < snap.Records {
		return m, fmt.Errorf("persist: short WAL for session %q: the checkpoint vouches for %d records, the WAL holds %d",
			id, snap.Records, len(m.recs))
	}
	return m, nil
}

// Delete implements Store. The snap goes first: a crash in between
// leaves an orphan WAL, which no Load or List sees and the next
// checkpoint under the id replaces, never a snap vouching for records
// whose WAL is gone.
func (f *FileStore) Delete(id string) error {
	if !ValidID(id) {
		return nil
	}
	f.mu.Lock()
	delete(f.wal, id)
	f.mu.Unlock()
	for _, p := range []string{f.snapPath(id), f.walPath(id)} {
		if err := f.remove(p); err != nil {
			return err
		}
	}
	return f.syncDir()
}

// List implements Store. Only checkpointed sessions are listed: an
// orphan WAL (impossible under the serving layer's checkpoint-at-open
// discipline, short of a crash mid-Delete) is not a loadable session.
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

// The filesystem steps a write takes. Each passes through step first,
// so a test can fail any one of them (export_test.go).

func (f *FileStore) step(name string) error {
	if f.fault == nil {
		return nil
	}
	if err := f.fault(name); err != nil {
		return fmt.Errorf("persist: %s: %w", name, err)
	}
	return nil
}

func (f *FileStore) open(path string, flag int) (*os.File, error) {
	if err := f.step("open"); err != nil {
		return nil, err
	}
	file, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return file, nil
}

// writeNew creates (or empties) path and writes buf to it, synced.
func (f *FileStore) writeNew(path string, buf []byte) error {
	file, err := f.open(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	return f.writeSynced(file, buf)
}

// writeSynced writes buf to file, fsyncs and closes it. A failed write
// step writes the first half of buf, as a crash mid-write may.
func (f *FileStore) writeSynced(file *os.File, buf []byte) error {
	err := f.step("write")
	if err != nil {
		_, _ = file.Write(buf[:len(buf)/2])
	} else if _, err = file.Write(buf); err == nil {
		if err = f.step("fsync"); err == nil {
			err = file.Sync()
		}
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

func (f *FileStore) rename(from, to string) error {
	if err := f.step("rename"); err != nil {
		return err
	}
	if err := os.Rename(from, to); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// truncate cuts path to size bytes and fsyncs it.
func (f *FileStore) truncate(path string, size int64) error {
	file, err := f.open(path, os.O_WRONLY)
	if err != nil {
		return err
	}
	defer file.Close() // the success path checks Sync, the durability point
	if err := f.step("truncate"); err != nil {
		return err
	}
	if err := file.Truncate(size); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.step("fsync"); err != nil {
		return err
	}
	if err := file.Sync(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// remove deletes path; a missing file is not an error.
func (f *FileStore) remove(path string) error {
	if err := f.step("remove"); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// syncDir makes renames, removals and new directory entries durable.
func (f *FileStore) syncDir() error {
	if err := f.step("syncdir"); err != nil {
		return err
	}
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

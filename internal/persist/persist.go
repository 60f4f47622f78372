// Package persist stores served validation sessions durably. A session's
// durable form (Record) is its opening configuration — opaque bytes, so
// the store does not depend on the serving layer's request types — plus
// the elicitation transcript; that pair is sufficient to rebuild the
// session bit-identically via core.RestoreSession (see internal/core).
// A checkpoint also carries the session's state image, which lets the
// restore skip the replay the image vouches for (Record.Image).
//
// A Store separates the cheap frequent write from the expensive rare
// one: Append adds a single elicitation to the session's write-ahead
// log, Checkpoint atomically replaces the whole record and resets the
// log. The serving layer checkpoints at open, appends on every answer,
// and compacts the WAL into a fresh checkpoint every N answers, so a
// crash at any instant loses at most the answer whose HTTP response was
// never sent.
//
// WAL entries carry the elicitation's absolute index in the transcript
// (Seq). Load merges checkpoint and WAL by sequence number: entries the
// checkpoint already covers are skipped, which makes the
// checkpoint-then-truncate pair crash-safe in either order, and a gap in
// the sequence is reported as corruption instead of being replayed into
// a wrong session.
//
// Two backends implement Store: MemStore (tests, and the default spill
// target of the session manager — sessions survive idle eviction but not
// the process) and FileStore (file.go — sessions survive SIGKILL).
//
// A Store does not serialise callers: per-session write ordering is the
// caller's job (the session manager already holds a per-session lock
// around every mutation). Operations on distinct sessions may run
// concurrently.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"factcheck/internal/core"
)

// Version is the record encoding version written by this build. Load
// rejects records written by a newer build. Version 2 marks
// transcripts that may carry corpus-ingestion records
// (core.Elicitation.Ingest): a version-1 build replaying such a
// transcript would silently drop the deltas and diverge, so it must
// reject the record instead.
const Version = 2

// ErrUnknownSession reports an Append for a session that was never
// checkpointed; the serving layer always checkpoints a session at open,
// so this is a caller bug, not a recoverable condition.
var ErrUnknownSession = errors.New("persist: append to a session that has no checkpoint")

// Record is the durable form of one session.
type Record struct {
	// Version is the encoding version; the store stamps it on write.
	Version int `json:"version"`
	// Config is the opening configuration, opaque to the store (the
	// serving layer stores its OpenRequest as JSON).
	Config json.RawMessage `json:"config"`
	// Elicitations is the full transcript; replaying it against the
	// configuration rebuilds the session bit-identically.
	Elicitations []core.Elicitation `json:"elicitations"`
	// Image, when present, is the session's state image as of the
	// checkpoint (core.Snapshot.Image): it lets a restore skip the
	// replay of the checkpointed transcript and replay only the WAL
	// entries Load merged in behind it. It rides inside the record so
	// that the checkpoint's one atomic rename covers both — an image can
	// never be newer or older than the transcript it sits beside — and
	// it is opaque here: core verifies it against the transcript and
	// falls back to replay on any doubt. Records written before images
	// existed simply have none.
	Image []byte `json:"image,omitempty"`
}

// Store persists session records. All implementations must make
// Checkpoint atomic (a crashed checkpoint leaves the previous record
// loadable) and Load tolerant of a torn final WAL append.
type Store interface {
	// Checkpoint atomically replaces the session's durable record and
	// resets its write-ahead log.
	Checkpoint(id string, rec Record) error
	// Append adds one elicitation to the session's write-ahead log.
	// seq is the elicitation's absolute index in the transcript
	// (checkpoint elicitations included); appends at an index the
	// stored transcript already covers are ignored, and an append that
	// would leave a gap is rejected — the caller repairs a missed
	// append with a full Checkpoint, never by writing past the hole.
	Append(id string, seq int, e core.Elicitation) error
	// Load returns the session's record with WAL entries merged in;
	// ok = false reports an unknown session.
	Load(id string) (rec Record, ok bool, err error)
	// Delete removes every trace of the session. Deleting an unknown
	// session is a no-op.
	Delete(id string) error
	// List returns the ids of all stored sessions, in no particular
	// order.
	List() ([]string, error)
	// Close releases the store's resources.
	Close() error
}

// Locator is an optional Store extension: a non-empty Location
// identifies the storage the records live in (the absolute data
// directory for FileStore), such that two stores reporting the same
// location read and write the same records. A shard router uses this
// to tell backends sharing one data directory from backends with
// private stores — the two need different migration tombstoning.
type Locator interface {
	Location() string
}

// MemStore is the in-memory Store: records survive session eviction but
// not the process. It is the session manager's default backend and the
// conformance reference for FileStore.
type MemStore struct {
	mu   sync.Mutex
	recs map[string]Record
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recs: make(map[string]Record)}
}

func cloneRecord(rec Record) Record {
	rec.Config = append(json.RawMessage(nil), rec.Config...)
	rec.Elicitations = append([]core.Elicitation(nil), rec.Elicitations...)
	rec.Image = append([]byte(nil), rec.Image...)
	return rec
}

// Checkpoint implements Store.
func (m *MemStore) Checkpoint(id string, rec Record) error {
	rec = cloneRecord(rec)
	rec.Version = Version
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[id] = rec
	return nil
}

// Append implements Store.
func (m *MemStore) Append(id string, seq int, e core.Elicitation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	switch {
	case seq < len(rec.Elicitations):
		// Already covered by the checkpoint (a re-append after a
		// recovered partial failure); idempotent.
		return nil
	case seq == len(rec.Elicitations):
		rec.Elicitations = append(rec.Elicitations, e)
		m.recs[id] = rec
		return nil
	default:
		return fmt.Errorf("persist: append gap for session %q: seq %d after %d elicitations",
			id, seq, len(rec.Elicitations))
	}
}

// Load implements Store.
func (m *MemStore) Load(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return Record{}, false, nil
	}
	return cloneRecord(rec), true, nil
}

// Delete implements Store.
func (m *MemStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recs, id)
	return nil
}

// List implements Store.
func (m *MemStore) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.recs))
	for id := range m.recs {
		ids = append(ids, id)
	}
	return ids, nil
}

// Close implements Store.
func (m *MemStore) Close() error { return nil }

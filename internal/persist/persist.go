// Package persist stores served validation sessions durably. A session's
// durable form (Record) is its opening configuration — opaque bytes, so
// the store does not depend on the serving layer's request types — plus
// the elicitation transcript; that pair is sufficient to rebuild the
// session bit-identically via core.RestoreSession (see internal/core).
// A checkpoint also carries the session's state image, which lets the
// restore skip the replay the image vouches for (Record.Image).
//
// A Store writes every transcript record once. Append adds a single
// record to the session's transcript; Checkpoint replaces the
// configuration and the state image and hands over only the records the
// store does not hold yet (Record.From), so its cost is the image's, not
// the transcript's. The serving layer checkpoints at open, appends on
// every answer, and cuts a fresh image every N answers, so a crash at
// any instant loses at most the answer whose HTTP response was never
// sent, and a restore replays at most the records behind the image.
//
// Transcript records carry their absolute index (Seq). Load merges them
// by sequence number: an entry already covered is skipped, and a gap in
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
	// Elicitations is the transcript from index From on; replaying the
	// whole transcript against the configuration rebuilds the session
	// bit-identically.
	Elicitations []core.Elicitation `json:"elicitations"`
	// Image, when present, is the session's state image as of the
	// checkpoint (core.Snapshot.Image): it lets a restore skip the
	// replay of the transcript prefix the image's header names (its
	// length and digest) and replay only the records behind it. It is
	// opaque here: core checks it against whatever transcript Load
	// returns and falls back to replay on any doubt, so an image may sit
	// beside a transcript that has grown since it was cut. Records
	// written before images existed simply have none.
	Image []byte `json:"image,omitempty"`
	// From is the transcript index of Elicitations[0]. A checkpoint
	// hands the store only the records it lacks: the store keeps its
	// first From records (it must hold that many) and replaces the rest
	// with Elicitations. Load always returns the whole transcript, From 0.
	From int `json:"from,omitempty"`
}

// Store persists session records. All implementations must make
// Checkpoint crash-safe (a crashed checkpoint leaves the previous
// record loadable, at most with the records it was handed appended) and
// Load tolerant of a torn final append.
type Store interface {
	// Checkpoint replaces the session's configuration and state image
	// and sets its transcript to the store's first rec.From records
	// followed by rec.Elicitations; a rec.From past the records the
	// store holds is rejected as a gap.
	Checkpoint(id string, rec Record) error
	// Append adds one elicitation to the session's transcript. seq is
	// the elicitation's absolute index in the transcript; appends at an
	// index the stored transcript already covers are ignored, and an
	// append that would leave a gap is rejected — the caller repairs a
	// missed append with a Checkpoint, never by writing past the hole.
	Append(id string, seq int, e core.Elicitation) error
	// Load returns the session's record with its whole transcript;
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

// gapError reports a checkpoint that hands the store records from an
// index past the end of the transcript it holds.
func gapError(id string, from, held int) error {
	return fmt.Errorf("persist: checkpoint gap for session %q: records from %d after %d held", id, from, held)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	held := m.recs[id].Elicitations
	if rec.From < 0 || rec.From > len(held) {
		return gapError(id, rec.From, len(held))
	}
	// The stored slice is the store's own (Load hands out copies), so the
	// handed records are copied onto it in place.
	m.recs[id] = Record{
		Version:      Version,
		Config:       append(json.RawMessage(nil), rec.Config...),
		Elicitations: append(held[:rec.From], rec.Elicitations...),
		Image:        append([]byte(nil), rec.Image...),
	}
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

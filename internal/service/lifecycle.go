package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
)

func (m *Manager) janitor() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.IdleTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.EvictIdle(m.cfg.IdleTTL)
		}
	}
}

// EvictIdle spills every session idle for at least ttl to the store and
// releases its in-memory resources (cached worker chains, scoring
// buffers, the corpus and engine), returning the number spilled. A
// spilled session stops counting against the session cap; its next
// request revives it transparently by deterministic replay, so memory
// scales past MaxSessions while ids stay serveable.
//
// The spill checkpoint is written while the session is still routable
// and its lock is held: concurrent requests for the id queue on the
// session lock instead of racing a revival against the checkpoint, and
// a request that touched the session while we waited cancels the
// eviction (rechecked under the manager lock before removal).
func (m *Manager) EvictIdle(ttl time.Duration) int {
	cutoff := m.nowFn().Add(-ttl)
	stale := func(s *Session) bool {
		return s.lastUsed.Before(cutoff) || s.lastUsed.Equal(cutoff)
	}
	m.mu.Lock()
	var victims []*Session
	for _, s := range m.sessions {
		if stale(s) {
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	evicted := 0
	for _, s := range victims {
		if m.spill(s, stale) {
			evicted++
		}
	}
	return evicted
}

// spill writes one victim's compacting checkpoint and removes it from
// the live set; it reports whether the session was actually evicted. A
// session Deleted since the victim scan is already closed (Delete holds
// s.mu while closing), and checkpointing it would resurrect its durable
// record — the Closed check skips it.
func (m *Manager) spill(s *Session, stale func(*Session) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core.Closed() {
		return false
	}
	// Queued arrivals were acknowledged to their producers; fold them
	// into the spill checkpoint rather than dropping them with the live
	// copy (best effort, like the checkpoint itself).
	_ = m.drainWithBudget(s)
	// Compact WAL + checkpoint into one fresh checkpoint. Failure is
	// non-fatal: the store still holds the session as the previous
	// checkpoint plus its WAL, which Load merges.
	_ = m.checkpointLocked(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.sessions[s.id]; ok && cur == s && stale(s) {
		delete(m.sessions, s.id)
		_ = s.core.Close()
		return true
	}
	return false
}

// record assembles the session's durable form — configuration,
// transcript and the state image as of its end; s.mu must be held.
func (s *Session) record() (persist.Record, error) {
	cfg, err := json.Marshal(s.cfg)
	if err != nil {
		return persist.Record{}, err
	}
	cs := s.core.Snapshot()
	return persist.Record{Config: cfg, Elicitations: cs.Elicitations, Image: cs.Image}, nil
}

// checkpointLocked writes a full checkpoint for s — every one carries a
// fresh state image, so a restore replays at most the WAL behind it —
// and resets its WAL counter; s.mu must be held.
func (m *Manager) checkpointLocked(s *Session) error {
	rec, err := s.record()
	if err == nil {
		err = m.store.Checkpoint(s.id, rec)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	s.walLen = 0
	m.telemetry.Lock()
	m.telemetry.imageBytes += int64(len(rec.Image))
	m.telemetry.Unlock()
	return nil
}

// Shutdown stops the janitor, spills every session to the store (a
// final compacting checkpoint, so a durable store can recover them all
// after restart), closes them, and closes the store. The manager
// rejects all further operations with ErrShutdown.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stop)
	victims := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		victims = append(victims, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	m.wg.Wait()
	for _, s := range victims {
		s.mu.Lock()
		_ = m.drainWithBudget(s)  // acknowledged arrivals ride the final checkpoint
		_ = m.checkpointLocked(s) // best effort; WAL already covers the transcript
		_ = s.core.Close()
		s.mu.Unlock()
	}
	_ = m.store.Close()
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// Open creates a session from a fresh configuration.
func (m *Manager) Open(req OpenRequest) (SessionInfo, error) {
	return m.open(newID(), req, nil, false)
}

// checkSessionID validates a caller-supplied session id: ids become
// file names in a FileStore and path segments in the API, so anything
// outside [A-Za-z0-9_-] (or unreasonably long) is rejected.
func checkSessionID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("service: invalid session id %q", id)
	}
	for _, r := range id {
		ok := r == '-' || r == '_' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return fmt.Errorf("service: invalid session id %q", id)
		}
	}
	return nil
}

// OpenAs creates a session under a caller-chosen id. This is how a
// shard router keeps placement consistent: the router draws the id,
// hashes it onto the ring, and asks the owning backend to open under
// exactly that id. An id already known to this backend (live, stored,
// or mid-open) is rejected with ErrExists.
func (m *Manager) OpenAs(id string, req OpenRequest) (SessionInfo, error) {
	if err := checkSessionID(id); err != nil {
		return SessionInfo{}, err
	}
	if _, ok, err := m.store.Load(id); err != nil {
		return SessionInfo{}, fmt.Errorf("%w: %v", ErrPersist, err)
	} else if ok {
		return SessionInfo{}, fmt.Errorf("%w: %q", ErrExists, id)
	}
	return m.open(id, req, nil, false)
}

// Restore reopens a snapshotted session by deterministic replay of its
// transcript, under a fresh id. The restored session continues exactly
// where the snapshotted one stopped.
func (m *Manager) Restore(snap SessionSnapshot) (SessionInfo, error) {
	return m.open(newID(), snap.Config, snap.replay(), false)
}

// replay is the snapshot without its configuration, as
// core.RestoreSession takes it.
func (snap SessionSnapshot) replay() *core.Snapshot {
	return &core.Snapshot{Version: snap.Version, Elicitations: snap.Elicitations, Image: snap.Image}
}

// snapshot assembles the session's portable durable form; s.mu must be
// held.
func (s *Session) snapshot() SessionSnapshot {
	cs := s.core.Snapshot()
	return SessionSnapshot{Version: cs.Version, Config: s.cfg, Elicitations: cs.Elicitations, Image: cs.Image}
}

// Export freezes a session and returns its portable durable form — the
// same checkpoint+WAL record the persist layer keeps, which is all a
// session is. After Export the local copy is closed and will not be
// revived (requests get ErrMigrated); the durable record is retained as
// the rollback copy until the migration is confirmed with Delete, or
// rolled back by importing the payload right back into this backend.
func (m *Manager) Export(id string) (SessionSnapshot, error) {
	s, err := m.get(context.Background(), id) // revives a spilled session first
	if err != nil {
		return SessionSnapshot{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core.Closed() {
		// Evicted or deleted between lookup and lock.
		return SessionSnapshot{}, ErrNotFound
	}
	// Acknowledged arrivals migrate with the session: drain the mailbox
	// into the transcript before the payload is cut. Unlike spill this
	// is not best-effort — an exported record silently missing deltas
	// would diverge from what producers were told.
	if err := m.drainWithBudget(s); err != nil {
		return SessionSnapshot{}, err
	}
	// Final compacting checkpoint: the local durable record (the
	// rollback copy) must match the payload that travels.
	if err := m.checkpointLocked(s); err != nil {
		return SessionSnapshot{}, err
	}
	snap := s.snapshot()
	m.mu.Lock()
	if cur, ok := m.sessions[s.id]; ok && cur == s {
		delete(m.sessions, s.id)
		m.exported[s.id] = true
	}
	m.mu.Unlock()
	_ = s.core.Close()
	return snap, nil
}

// Import installs an exported session under its original id — the
// receiving half of a migration, and the rollback path when the forward
// migration failed. The session is rebuilt by the same bit-identical
// replay as crash recovery and checkpointed locally before it becomes
// routable. A live session under the id is rejected with ErrExists; a
// stored (non-live) record is overwritten deliberately, because that is
// exactly what a rollback or a re-imported failover copy looks like.
func (m *Manager) Import(id string, snap SessionSnapshot) (SessionInfo, error) {
	if err := checkSessionID(id); err != nil {
		return SessionInfo{}, err
	}
	return m.open(id, snap.Config, snap.replay(), true)
}

// Sessions lists every session this backend owns, split by residence:
// live in-memory ones versus stored (spilled or not-yet-revived)
// records, minus copies exported to another backend. A shard router
// enumerates backends this way when draining or rebalancing, so it
// needs no session table of its own; the live/stored split matters
// because with a shared store every backend lists the same stored
// records, and only live copies pin a session to a particular backend.
func (m *Manager) Sessions() (SessionList, error) {
	stored, err := m.store.List()
	if err != nil {
		return SessionList{}, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return SessionList{}, ErrShutdown
	}
	out := SessionList{
		Live:   make([]string, 0, len(m.sessions)),
		Stored: m.notLiveLocked(stored),
	}
	for id := range m.sessions {
		out.Live = append(out.Live, id)
	}
	sort.Strings(out.Live)
	sort.Strings(out.Stored)
	return out, nil
}

// StoreLocation identifies the backing store's storage location (the
// absolute data directory for a file store, "" for stores with no
// shareable identity). A shard router compares locations to decide
// whether two backends see the same bytes: migrating a session between
// co-located backends must not tombstone the record the new owner now
// serves from.
func (m *Manager) StoreLocation() string {
	if l, ok := m.store.(persist.Locator); ok {
		return l.Location()
	}
	return ""
}

// buildSession constructs the in-memory session for req, restoring snap
// when non-nil (restore, import and revival — from its state image when
// that verifies, by replay otherwise; recordRestore counts which) or
// opening fresh when nil. The initial inference / replay is the
// expensive part; it holds one base lane like any request. The budget
// is installed as the session's lane lender here, once: from now on
// every parallel section of the session may be as wide as the whole
// budget and borrows what is free. The returned session is not yet
// routable — the caller publishes it. trace is the id of the request
// that caused the build ("" for none).
func (m *Manager) buildSession(trace, id string, req OpenRequest, snap *core.Snapshot) (*Session, error) {
	start := time.Now()
	opts, err := BuildOptions(req)
	if err != nil {
		return nil, err
	}
	corpus, err := BuildCorpus(req)
	if err != nil {
		return nil, err
	}
	opts.Workers, opts.Lanes = m.budget.Total(), m.budget
	release := m.budget.Acquire()
	var cs *core.Session
	if snap == nil {
		cs, err = core.OpenSession(corpus.DB, opts)
	} else {
		cs, err = core.RestoreSession(corpus.DB, opts, *snap)
	}
	release()
	if err != nil {
		return nil, err
	}
	if snap != nil {
		// Replay grew the corpus through recorded ingest records; the
		// ground truth of ingested claims rides inside the deltas (the
		// database itself is truth-free), so the truth vector is grown
		// here to keep oracle answers and precision defined over the
		// full corpus.
		for _, e := range snap.Elicitations {
			if e.Ingest != nil {
				corpus.Truth = append(corpus.Truth, e.Ingest.Truth...)
			}
		}
	}
	s := &Session{
		id:         id,
		core:       cs,
		corpus:     corpus,
		cfg:        req,
		boxClaims:  corpus.DB.NumClaims,
		boxSources: len(corpus.DB.Sources),
		boxDocs:    len(corpus.DB.Documents),
		srcDim:     corpus.DB.SourceFeatureDim(),
		docDim:     corpus.DB.DocFeatureDim(),
		spans:      obs.NewRing(spanRingCap),
		lastUsed:   m.nowFn(),
	}
	if snap != nil {
		m.recordRestore(s, trace, start)
	}
	return s, nil
}

// open builds, persists and publishes a session under id. reserve/
// unreserve bracket the build so two racing opens (or an open racing a
// revival) of the same id cannot both publish. imported marks the
// Import path: an exported tombstone for the id is cleared at publish,
// and a failed publish leaves the stored record in place — it is the
// migration's rollback copy, not this call's garbage.
func (m *Manager) open(id string, req OpenRequest, replay *core.Snapshot, imported bool) (SessionInfo, error) {
	if err := m.reserve(id, imported); err != nil {
		return SessionInfo{}, err
	}
	defer m.unreserve(id)
	s, err := m.buildSession("", id, req, replay)
	if err != nil {
		return SessionInfo{}, err
	}
	// Persist before publishing: once a client holds the id, the session
	// must survive a crash. The session is not routable yet, so no lock
	// is needed around the checkpoint.
	if err := m.checkpointLocked(s); err != nil {
		_ = s.core.Close()
		return SessionInfo{}, err
	}
	m.mu.Lock()
	if m.closed || len(m.sessions) >= m.cfg.MaxSessions {
		closed := m.closed
		m.mu.Unlock()
		_ = s.core.Close()
		if !imported {
			_ = m.store.Delete(s.id)
		}
		if closed {
			return SessionInfo{}, ErrShutdown
		}
		return SessionInfo{}, ErrFull
	}
	m.sessions[s.id] = s
	if imported {
		delete(m.exported, s.id)
	}
	m.mu.Unlock()
	m.telemetry.Lock()
	m.telemetry.sessionsOpened++
	m.telemetry.Unlock()
	return SessionInfo{
		ID:        s.id,
		Profile:   s.corpus.Profile.Name,
		Claims:    s.corpus.DB.NumClaims,
		Sources:   len(s.corpus.DB.Sources),
		Documents: len(s.corpus.DB.Documents),
		Precision: s.core.Precision(s.corpus.Truth),
	}, nil
}

// reserve admits an open for id and marks it in-flight. allowExported
// distinguishes Import (which may reclaim an exported id — the
// rollback) from plain opens (for which an exported id is still taken).
// While the SLO controller sheds, plain opens are refused outright (new
// sessions are the most expensive admission there is: corpus generation
// plus initial inference); imports stay exempt, because a shard
// migration landing here is load the fleet has already accepted and
// refusing it would wedge drains exactly when they matter.
func (m *Manager) reserve(id string, allowExported bool) error {
	if !allowExported && m.sheddingNow() {
		m.slo.RecordShed()
		return ErrOverloaded
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrShutdown
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return ErrFull
	}
	if _, live := m.sessions[id]; live || m.opening[id] || m.reviving[id] > 0 {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	if !allowExported && m.exported[id] {
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	m.opening[id] = true
	return nil
}

func (m *Manager) unreserve(id string) {
	m.mu.Lock()
	delete(m.opening, id)
	m.mu.Unlock()
}

// get looks a session up and refreshes its idle clock. A session absent
// from memory but present in the store (spilled by eviction, or left
// behind by a crashed process) is revived first: rebuilt via the
// bit-identical core.RestoreSession replay path and re-inserted into
// the live set. When two requests race to revive the same id, the loser
// discards its replay and adopts the winner's session. Revival counts
// against the session cap.
//
// A revival registers itself in m.reviving for its whole duration so
// Delete can leave a tombstone for it: without one, a Delete landing
// between the store read and the insert would remove the durable record
// and still see the session come back to life (and the next spill would
// re-create the record). The tombstone check runs under the manager
// lock right before the insert, and Delete keeps its store writes under
// the same lock, so every interleaving either tombstones the in-flight
// revival or empties the store before the revival's read.
func (m *Manager) get(ctx context.Context, id string) (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShutdown
	}
	if s, ok := m.sessions[id]; ok {
		s.lastUsed = m.nowFn()
		m.mu.Unlock()
		return s, nil
	}
	if m.exported[id] {
		// The session was exported to another backend; its retained
		// record is a rollback copy, not a serveable session.
		m.mu.Unlock()
		return nil, ErrMigrated
	}
	if m.opening[id] {
		// An open/import for this id is mid-flight: its checkpoint may
		// already be on disk, but the id has not been published to the
		// caller yet, so to this request it does not exist.
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	m.reviving[id]++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if m.reviving[id]--; m.reviving[id] <= 0 {
			delete(m.reviving, id)
			delete(m.tombstoned, id)
		}
		m.mu.Unlock()
	}()

	rec, req, ok, err := m.loadStored(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	s, err := m.buildSession(obs.TraceID(ctx), id, req, &core.Snapshot{Elicitations: rec.Elicitations, Image: rec.Image})
	if err != nil {
		return nil, fmt.Errorf("%w: replay of session %q: %v", ErrPersist, id, err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = s.core.Close()
		return nil, ErrShutdown
	}
	if m.tombstoned[id] {
		// The session was deleted while we were replaying it.
		m.mu.Unlock()
		_ = s.core.Close()
		return nil, ErrNotFound
	}
	if cur, ok := m.sessions[id]; ok {
		// Lost a revival race; the store was only read, nothing to undo.
		cur.lastUsed = m.nowFn()
		m.mu.Unlock()
		_ = s.core.Close()
		return cur, nil
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		_ = s.core.Close()
		return nil, ErrFull
	}
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// RecoverAll verifies every session left in the store by a previous
// process: each record is loaded (checkpoint plus WAL merge, torn tails
// dropped) and its configuration decoded. It returns the number of
// recoverable sessions. Replay itself is deferred to each session's
// first request, so boot cost is one store scan regardless of how much
// inference the stored transcripts represent; the first request pays
// the replay through the same bit-identical restore path.
func (m *Manager) RecoverAll() (int, error) {
	ids, err := m.store.List()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	recovered := 0
	var errs []error
	for _, id := range ids {
		if _, _, ok, err := m.loadStored(id); err != nil || !ok {
			errs = append(errs, fmt.Errorf("session %q: %v", id, err))
			continue
		}
		recovered++
	}
	return recovered, errors.Join(errs...)
}

// loadStored reads id's durable record (checkpoint plus WAL merge) and
// decodes the configuration it was opened with; ok is false when the
// store holds no record for id.
func (m *Manager) loadStored(id string) (rec persist.Record, req OpenRequest, ok bool, err error) {
	rec, ok, err = m.store.Load(id)
	if err != nil {
		return rec, req, false, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	if ok {
		if err := json.Unmarshal(rec.Config, &req); err != nil {
			return rec, req, false, fmt.Errorf("%w: corrupt stored config for session %q: %v", ErrPersist, id, err)
		}
	}
	return rec, req, ok, nil
}

// Spilled returns the number of stored sessions that are not currently
// live (evicted to the store, or recovered-but-not-yet-revived).
func (m *Manager) Spilled() int {
	ids, err := m.store.List()
	if err != nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.notLiveLocked(ids))
}

// notLiveLocked filters stored ids down to the sessions this backend
// owns but does not hold in memory: not live, and not exported to
// another backend. m.mu must be held.
func (m *Manager) notLiveLocked(stored []string) []string {
	out := make([]string, 0, len(stored))
	for _, id := range stored {
		if _, live := m.sessions[id]; !live && !m.exported[id] {
			out = append(out, id)
		}
	}
	return out
}

// Delete closes and removes a session, live or spilled, and deletes its
// durable record. The store writes run under the manager lock, atomic
// with the tombstone decision, so a revival in flight for the id either
// sees the tombstone (registered before the delete) or an already-empty
// store (registered after) — it can never resurrect the session. The
// store I/O under the lock is acceptable because deletes are rare.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrShutdown
	}
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	if !ok {
		// Possibly spilled, exported, or being revived right now.
		defer m.mu.Unlock()
		if m.reviving[id] > 0 {
			m.tombstoned[id] = true
		}
		_, stored, err := m.store.Load(id)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
		if !stored {
			return ErrNotFound
		}
		if err := m.store.Delete(id); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
		// A migration confirmed by the router deletes the exported
		// rollback copy; the id is free again.
		delete(m.exported, id)
		return nil
	}
	m.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-take the manager lock (s.mu → m.mu, the eviction janitor's
	// order) so the record removal is atomic with the tombstone check.
	m.mu.Lock()
	if m.reviving[id] > 0 {
		m.tombstoned[id] = true
	}
	err := m.store.Delete(id)
	m.mu.Unlock()
	if err != nil {
		_ = s.core.Close()
		return fmt.Errorf("%w: %v", ErrPersist, err)
	}
	return s.core.Close()
}

// Snapshot exports a session's durable form.
func (m *Manager) Snapshot(id string) (SessionSnapshot, error) {
	var snap SessionSnapshot
	err := m.withSession(context.Background(), id, false, func(s *Session) error {
		snap = s.snapshot()
		return nil
	})
	return snap, err
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
// releases its in-memory resources (the corpus, the engine and its
// chain, the gain cache), returning the number spilled. A
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
	stale := func(s *Session) bool { return !s.lastUsed.After(cutoff) }
	m.mu.Lock()
	victims := slices.DeleteFunc(m.liveLocked(), func(s *Session) bool { return !stale(s) })
	m.mu.Unlock()
	evicted := 0
	for _, s := range victims {
		if m.spill(s, stale) {
			evicted++
		}
	}
	return evicted
}

// spill writes one victim's final checkpoint and removes it from
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
	// A fresh image over the transcript the WAL holds. Failure is
	// non-fatal: the store still holds the whole transcript beside the
	// previous image, which the restore replays behind.
	_, _ = m.checkpointLocked(s, s.stored)
	m.mu.Lock()
	defer m.mu.Unlock()
	if sl := m.slots[s.id]; sl != nil && sl.sess == s && stale(s) {
		delete(m.slots, s.id)
		m.dropLocked(s)
		_ = s.core.Close()
		return true
	}
	return false
}

// record assembles the session's durable form — configuration, the
// transcript from index from on and the state image as of its end; s.mu
// must be held. It is the one producer of that form: checkpoints store
// it, snapshots and export payloads are it from index 0 with the
// configuration typed (snapshotOf).
func (s *Session) record(from int) (persist.Record, error) {
	cfg, err := json.Marshal(s.cfg)
	if err != nil {
		return persist.Record{}, err
	}
	return persist.Record{Config: cfg, From: from, Elicitations: s.core.TranscriptTail(from), Image: s.core.Image()}, nil
}

// snapshotOf is rec, a whole record of s, in its portable form.
func (s *Session) snapshotOf(rec persist.Record) SessionSnapshot {
	return SessionSnapshot{Version: core.SnapshotVersion, Config: s.cfg, Elicitations: rec.Elicitations, Image: rec.Image}
}

// checkpointLocked cuts the record of s from index from on (from ≤
// s.stored) and hands the store the part it lacks — the records from
// s.stored on, none after a persisted answer — with a fresh state
// image, so a restore replays at most the WAL behind it; s.mu must be
// held. It returns the record it cut: from 0 gives Export its payload.
func (m *Manager) checkpointLocked(s *Session, from int) (persist.Record, error) {
	rec, err := s.record(from)
	if err == nil {
		lacks := rec
		lacks.Elicitations, lacks.From = rec.Elicitations[s.stored-from:], s.stored
		err = m.store.Checkpoint(s.id, lacks)
	}
	if err != nil {
		return rec, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	s.stored, s.walLen = s.core.TranscriptLen(), 0
	m.telemetry.Lock()
	m.telemetry.imageBytes += int64(len(rec.Image))
	m.telemetry.Unlock()
	return rec, nil
}

// Shutdown stops the janitor, spills every session to the store (a
// final checkpoint, so a durable store can restore them all from an image
// after restart) and closes the store. From its first moment the
// manager rejects every operation with ErrShutdown, and a build still
// in flight settles to that.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.stop)
	victims := m.liveLocked()
	m.mu.Unlock()
	m.wg.Wait()
	for _, s := range victims {
		m.spill(s, func(*Session) bool { return true })
	}
	_ = m.store.Close()
}

// Open creates a session from a fresh configuration.
func (m *Manager) Open(req OpenRequest) (SessionInfo, error) {
	return m.open(obs.NewTraceID(), req, nil, buildOpen)
}

// checkSessionID validates a caller-supplied session id against the
// store's rule (persist.ValidID): ids become file names in a FileStore
// and path segments in the API.
func checkSessionID(id string) error {
	if !persist.ValidID(id) {
		return fmt.Errorf("service: invalid session id %q", id)
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
	return m.open(id, req, nil, buildOpen)
}

// Restore reopens a snapshotted session by deterministic replay of its
// transcript, under a fresh id. The restored session continues exactly
// where the snapshotted one stopped.
func (m *Manager) Restore(snap SessionSnapshot) (SessionInfo, error) {
	return m.open(obs.NewTraceID(), snap.Config, snap.replay(), buildOpen)
}

// replay is the snapshot without its configuration, as
// core.RestoreSession takes it.
func (snap SessionSnapshot) replay() *core.Snapshot {
	return &core.Snapshot{Version: snap.Version, Elicitations: snap.Elicitations, Image: snap.Image}
}

// Export freezes a session and returns its portable durable form — the
// same checkpoint+WAL record the persist layer keeps, which is all a
// session is. After Export the local copy is closed and will not be
// revived (requests get ErrMigrated); the durable record is retained as
// the rollback copy until the migration is confirmed with Delete, or
// rolled back by importing the payload right back into this backend.
func (m *Manager) Export(id string) (snap SessionSnapshot, err error) {
	// withSession revives a spilled session first.
	err = m.withSession(context.Background(), id, false, func(s *Session) error {
		// Acknowledged arrivals migrate with the session: drain the
		// mailbox into the transcript before the payload is cut. Unlike
		// spill this is not best-effort — an exported record silently
		// missing deltas would diverge from what producers were told.
		if err := m.drainWithBudget(s); err != nil {
			return err
		}
		// Final checkpoint: the local durable record (the rollback copy)
		// and the payload that travels are cut from one record.
		rec, err := m.checkpointLocked(s, 0)
		if err != nil {
			return err
		}
		snap = s.snapshotOf(rec)
		// s is open and locked, so it is still the id's live session: every
		// way out of the table closes the session under its own lock.
		m.mu.Lock()
		sl := m.slots[id]
		sl.sess, sl.exported = nil, true
		m.dropLocked(s)
		m.mu.Unlock()
		_ = s.core.Close()
		return nil
	})
	return snap, err
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
	return m.open(id, snap.Config, snap.replay(), buildImport)
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
	out := SessionList{Live: []string{}, Stored: []string{}}
	for _, s := range m.liveLocked() {
		out.Live = append(out.Live, s.id)
	}
	for _, id := range stored {
		// A record under a build is still this backend's to serve.
		if sl := m.slots[id]; sl == nil || sl.sess == nil && !sl.exported {
			out.Stored = append(out.Stored, id)
		}
	}
	sort.Strings(out.Live)
	sort.Strings(out.Stored)
	return out, nil
}

// Spilled returns the number of stored sessions that are not currently
// live (evicted to the store, or recovered-but-not-yet-revived).
func (m *Manager) Spilled() int {
	list, _ := m.Sessions()
	return len(list.Stored)
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

// buildSession constructs the in-memory session for req through
// BuildSession on the manager's budget, restoring snap when non-nil
// (restore, import and revival) or opening fresh when nil, and
// releases one that is Done. The returned session is not yet routable
// — settle publishes it.
func (m *Manager) buildSession(id string, req OpenRequest, snap *core.Snapshot) (*Session, error) {
	cs, corpus, err := BuildSession(req, snap, m.budget)
	if err != nil {
		return nil, err
	}
	if cs.Done() {
		cs.Release()
	}
	return &Session{
		id:         id,
		core:       cs,
		truth:      corpus.Truth,
		profile:    corpus.Profile.Name,
		cfg:        req,
		boxClaims:  corpus.DB.NumClaims,
		boxSources: len(corpus.DB.Sources),
		boxDocs:    len(corpus.DB.Documents),
		srcDim:     corpus.DB.SourceFeatureDim(),
		docDim:     corpus.DB.DocFeatureDim(),
		spans:      obs.NewRing(spanRingCap),
		lastUsed:   m.nowFn(),
	}, nil
}

// claimLocked puts id into the building state for one construction —
// every session this manager serves starts here and ends in settle —
// or refuses it: the seat the build holds counts under MaxSessions from
// now on, so a cap reached is known before anything is built, and an id
// that is live, being built, or exported (unless an import reclaims it)
// is taken. m.mu must be held.
func (m *Manager) claimLocked(id string, kind buildKind) (*slot, error) {
	seats := 0
	for _, sl := range m.slots {
		if sl.sess != nil || sl.done != nil {
			seats++
		}
	}
	sl := m.slots[id]
	switch {
	case m.closed:
		return nil, ErrShutdown
	case seats >= m.cfg.MaxSessions:
		return nil, ErrFull
	case sl == nil:
		sl = &slot{}
		m.slots[id] = sl
	case kind != buildImport || sl.sess != nil || sl.done != nil:
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	sl.done, sl.kind = make(chan struct{}), kind
	return sl, nil
}

// settle ends the build that claimed sl, the one place a session
// becomes routable. s is published when the build succeeded (err nil)
// and neither a shutdown nor a Delete overtook it; otherwise the seat is
// freed (an exported mark under a failed import stays), s is closed,
// and a checkpoint the build wrote for nobody is removed — an opened
// session's always, an imported one's only when deleted, since short of
// that it is the migration's rollback copy. Requests waiting on the
// build wake either way and look the id up again. A restore is counted
// here, so only sessions that went on to serve count; start is when the
// build began, trace the request that caused it ("" for none).
func (m *Manager) settle(id string, sl *slot, s *Session, err error, trace string, start time.Time) (*Session, error) {
	m.mu.Lock()
	built := err == nil
	switch {
	case built && m.closed:
		err = ErrShutdown
	case built && sl.deleted:
		err = ErrNotFound
	}
	if built && err != nil && (sl.deleted || sl.kind == buildOpen) {
		_ = m.store.Delete(id)
	}
	if err == nil {
		sl.sess, sl.exported = s, false
		m.touchLocked(s)
	} else if sl.deleted || !sl.exported {
		delete(m.slots, id)
	}
	close(sl.done)
	sl.done = nil
	m.mu.Unlock()
	if err != nil {
		if s != nil {
			m.countBuilds(s)
			_ = s.core.Close()
		}
		return nil, err
	}
	if r := s.core.Restored(); r.Image || r.Reason != "" {
		m.recordRestore(s, trace, start)
	}
	return s, nil
}

// open builds, persists and publishes a session under id; kind is
// buildOpen or buildImport. While the SLO controller sheds, plain opens
// are refused outright (new sessions are the most expensive admission
// there is: corpus generation plus initial inference); imports stay
// exempt, because a shard migration landing here is load the fleet has
// already accepted and refusing it would wedge drains exactly when they
// matter.
func (m *Manager) open(id string, req OpenRequest, replay *core.Snapshot, kind buildKind) (SessionInfo, error) {
	if kind != buildImport && m.sheddingNow() {
		m.slo.RecordShed()
		return SessionInfo{}, ErrOverloaded
	}
	m.mu.Lock()
	sl, err := m.claimLocked(id, kind)
	m.mu.Unlock()
	if err != nil {
		return SessionInfo{}, err
	}
	start := time.Now()
	var info SessionInfo
	s, err := m.buildSession(id, req, replay)
	if err == nil {
		// Read while the session is still this call's alone; once settled
		// it belongs to whoever holds its lock.
		info = SessionInfo{
			ID:        s.id,
			Profile:   s.profile,
			Claims:    s.core.DB.NumClaims,
			Sources:   len(s.core.DB.Sources),
			Documents: len(s.core.DB.Documents),
			Precision: s.core.Precision(s.truth),
		}
		// Persist before publishing: once a client holds the id, the
		// session must survive a crash. The session is not routable yet,
		// so no lock is needed around the checkpoint, and it hands the
		// store the whole transcript (s.stored is 0).
		_, err = m.checkpointLocked(s, 0)
	}
	if _, err = m.settle(id, sl, s, err, "", start); err != nil {
		return SessionInfo{}, err
	}
	m.telemetry.Lock()
	m.telemetry.sessionsOpened++
	m.telemetry.Unlock()
	return info, nil
}

// get looks a session up and refreshes its idle clock. An id with no
// slot may be in the store (spilled by eviction, or left behind by a
// crashed process): the request claims it and revives it through the
// bit-identical core.RestoreSession path; requests arriving meanwhile
// wait for that one build instead of running their own. Revival counts
// against the session cap, and is refused at the claim when the cap is
// reached.
//
// Delete keeps its store writes under the manager lock, so it either
// finds the claim (and marks it deleted, which settle honours) or
// empties the store before the revival's read: no interleaving
// resurrects a deleted session.
func (m *Manager) get(ctx context.Context, id string) (*Session, error) {
	for {
		var s *Session
		var err error
		var wait chan struct{}
		m.mu.Lock()
		sl := m.slots[id]
		switch {
		case m.closed:
			err = ErrShutdown
		case sl == nil:
			if sl, err = m.claimLocked(id, buildRevival); err == nil {
				m.mu.Unlock()
				return m.revive(ctx, id, sl)
			}
		case sl.sess != nil:
			s = sl.sess
			s.lastUsed = m.nowFn()
		case sl.exported:
			// The session was exported to another backend; its retained
			// record is a rollback copy, not a serveable session.
			err = ErrMigrated
		case sl.kind != buildRevival:
			// An open for this id is mid-flight: its checkpoint may already
			// be on disk, but the id has not been published to the caller
			// yet, so to this request it does not exist.
			err = ErrNotFound
		default:
			wait = sl.done
		}
		m.mu.Unlock()
		if wait == nil {
			return s, err
		}
		<-wait
	}
}

// revive builds the session of a claimed id from its stored record.
func (m *Manager) revive(ctx context.Context, id string, sl *slot) (*Session, error) {
	var s *Session
	snap, err := m.loadStored(id)
	start := time.Now()
	if err == nil {
		if s, err = m.buildSession(id, snap.Config, snap.replay()); err != nil {
			err = fmt.Errorf("%w: replay of session %q: %v", ErrPersist, id, err)
		} else {
			s.stored = len(snap.Elicitations)
		}
	}
	return m.settle(id, sl, s, err, obs.TraceID(ctx), start)
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
		switch _, err := m.loadStored(id); {
		case err == nil:
			recovered++
		case errors.Is(err, ErrNotFound):
			// Another process sharing the store deleted it since List.
			errs = append(errs, fmt.Errorf("session %q: listed but not loadable", id))
		default:
			errs = append(errs, fmt.Errorf("session %q: %v", id, err))
		}
	}
	return recovered, errors.Join(errs...)
}

// loadStored reads id's durable record (checkpoint plus WAL merge) into
// the portable form, decoding the configuration it was opened with;
// ErrNotFound when the store holds no record for id.
func (m *Manager) loadStored(id string) (snap SessionSnapshot, err error) {
	rec, ok, err := m.store.Load(id)
	if err != nil {
		return snap, fmt.Errorf("%w: %v", ErrPersist, err)
	}
	if !ok {
		return snap, ErrNotFound
	}
	if err := json.Unmarshal(rec.Config, &snap.Config); err != nil {
		return snap, fmt.Errorf("%w: corrupt stored config for session %q: %v", ErrPersist, id, err)
	}
	snap.Elicitations, snap.Image = rec.Elicitations, rec.Image
	return snap, nil
}

// Delete closes and removes a session, live or spilled, and deletes its
// durable record. The store writes run under the manager lock, atomic
// with the slot's fate: a live session leaves the table in the same
// critical section that removes its record (so no revival can read the
// record of a session being deleted), and a build in flight for the id
// is marked deleted before the record goes — it either sees the mark at
// settle or an already-empty store. The store I/O under the lock is
// acceptable because deletes are rare.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrShutdown
	}
	sl := m.slots[id]
	if sl == nil || sl.sess == nil {
		// Spilled, exported, being built right now, or unknown.
		defer m.mu.Unlock()
		if _, stored, err := m.store.Load(id); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		} else if !stored {
			return ErrNotFound
		}
		if sl != nil && sl.done != nil {
			sl.deleted = true
		}
		if err := m.store.Delete(id); err != nil {
			return fmt.Errorf("%w: %v", ErrPersist, err)
		}
		if sl != nil && sl.done == nil {
			// The rollback copy of a migration the router has now
			// confirmed; the id is free again.
			delete(m.slots, id)
		}
		return nil
	}
	s := sl.sess
	m.mu.Unlock()
	// s.mu → m.mu, the eviction janitor's order. The session stays in the
	// table while this waits for it, so requests queue on it (and then
	// find it closed) rather than reviving a second copy.
	s.mu.Lock()
	m.mu.Lock()
	if sl.sess != s || m.slots[id] != sl {
		// Spilled, exported or deleted while this waited: look again.
		m.mu.Unlock()
		s.mu.Unlock()
		return m.Delete(id)
	}
	delete(m.slots, id)
	m.dropLocked(s)
	err := m.store.Delete(id)
	m.mu.Unlock()
	defer s.mu.Unlock()
	if cerr := s.core.Close(); err == nil {
		return cerr
	}
	return fmt.Errorf("%w: %v", ErrPersist, err)
}

// Snapshot exports a session's durable form.
func (m *Manager) Snapshot(id string) (SessionSnapshot, error) {
	var snap SessionSnapshot
	err := m.withSession(context.Background(), id, false, func(s *Session) error {
		rec, err := s.record(0)
		snap = s.snapshotOf(rec)
		return err
	})
	return snap, err
}

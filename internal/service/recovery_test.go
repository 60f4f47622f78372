package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

// mustAnswers has the script give session id n oracle answers through c and
// returns the state after the last.
func mustAnswers(t *testing.T, c *Client, id string, n int) StateResponse {
	t.Helper()
	st, err := (&Script{Client: c, ID: id}).Answers(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func fileManager(t *testing.T, dir string, checkpointEvery int) *Manager {
	t.Helper()
	fs, err := persist.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(Config{Workers: 1, Store: fs, CheckpointEvery: checkpointEvery})
}

// TestCrashRecoveryBitIdentical is the durability acceptance test: a
// manager is abandoned mid-session without any shutdown (the in-process
// equivalent of SIGKILL — the file store holds no state outside the
// files themselves), a fresh manager over the same directory recovers
// the session from checkpoint + WAL, and the resumed run's selection
// trace and final state are bit-identical to an uninterrupted run with
// the same seed.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	req := fastOpen("wiki", 0.08, 21)
	const before, after = 4, 4

	// Uninterrupted reference run.
	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, before+after)

	// Interrupted run: answer, "crash", recover, resume.
	dir := t.TempDir()
	m1 := fileManager(t, dir, 3) // forces both a compaction and a WAL tail
	info, err := m1.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m1), info.ID, before)
	// No Shutdown, no Close: m1 is simply abandoned, as SIGKILL would.

	m2 := fileManager(t, dir, 3)
	defer m2.Shutdown()
	n, err := m2.RecoverAll()
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	if n != 1 {
		t.Fatalf("RecoverAll found %d sessions, want 1", n)
	}
	if got := m2.Spilled(); got != 1 {
		t.Fatalf("Spilled = %d before first touch, want 1", got)
	}
	// The first touch revives: from the state image of the compacting
	// checkpoint after the third answer, plus a replay of the one answer
	// in the WAL behind it.
	st, err := m2.State(info.ID, false)
	if err != nil {
		t.Fatalf("recovered session unavailable: %v", err)
	}
	if st.Labeled != before {
		t.Fatalf("recovered session labeled %d claims, want %d", st.Labeled, before)
	}
	assertRestores(t, m2, 1, nil)
	mustAnswers(t, NewLocalClient(m2), info.ID, after)
	assertSameTrace(t, servedTrace(t, m2, info.ID), servedTrace(t, ref, refInfo.ID))
}

// TestCrashRecoveryTornWALTail crashes "mid-append": the WAL's final
// entry is torn in half. Recovery drops the partial entry (that answer's
// response was never sent, so the client re-asks), and re-answering
// converges to a trace bit-identical to an uninterrupted run.
func TestCrashRecoveryTornWALTail(t *testing.T) {
	req := fastOpen("wiki", 0.08, 22)
	const before, after = 3, 3

	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, before+after)

	dir := t.TempDir()
	m1 := fileManager(t, dir, 100) // keep everything in the WAL
	info, err := m1.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m1), info.ID, before)

	// Tear the last WAL entry, as a crash mid-write would.
	wal := filepath.Join(dir, info.ID+".wal")
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, buf[:len(buf)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := fileManager(t, dir, 100)
	defer m2.Shutdown()
	st, err := m2.State(info.ID, false)
	if err != nil {
		t.Fatalf("recovered session unavailable: %v", err)
	}
	if st.Labeled != before-1 {
		t.Fatalf("recovery kept %d answers, want %d (torn entry dropped)", st.Labeled, before-1)
	}
	// The lost answer is re-elicited, then the run continues.
	mustAnswers(t, NewLocalClient(m2), info.ID, 1+after)
	assertSameTrace(t, servedTrace(t, m2, info.ID), servedTrace(t, ref, refInfo.ID))

	// A second crash: the appends behind the torn line must not have
	// glued onto its bytes, so the directory recovers again, whole.
	m3 := fileManager(t, dir, 100)
	defer m3.Shutdown()
	assertSameTrace(t, servedTrace(t, m3, info.ID), servedTrace(t, ref, refInfo.ID))
}

// TestGracefulShutdownSpillsSessions: Shutdown writes a final checkpoint
// for every live session, so a restart over the same directory resumes
// them from the image alone — the clean-restart counterpart of the
// crash tests.
func TestGracefulShutdownSpillsSessions(t *testing.T) {
	req := fastOpen("wiki", 0.08, 23)
	dir := t.TempDir()
	m1 := fileManager(t, dir, 100)
	info, err := m1.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	before := mustAnswers(t, NewLocalClient(m1), info.ID, 3)
	m1.Shutdown()

	m2 := fileManager(t, dir, 100)
	defer m2.Shutdown()
	st, err := m2.State(info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	// The shutdown checkpoint's image is the state after every record
	// the WAL holds: the restore installs it and replays nothing.
	m2.mu.Lock()
	r := m2.slots[info.ID].sess.core.Restored()
	m2.mu.Unlock()
	if !r.Image || r.Replayed != 0 {
		t.Fatalf("restore after shutdown = %+v, want the image with 0 records replayed", r)
	}
	if st.Labeled != before.Labeled || st.Z != before.Z || st.Precision != before.Precision {
		t.Fatalf("restarted state diverged: got (labeled=%d z=%v p=%v), want (labeled=%d z=%v p=%v)",
			st.Labeled, st.Z, st.Precision, before.Labeled, before.Z, before.Precision)
	}
}

// TestDeleteSpilledSession: deleting an evicted (spilled) session
// removes its durable record, after which the id is gone for good.
func TestDeleteSpilledSession(t *testing.T) {
	dir := t.TempDir()
	m := fileManager(t, dir, 3)
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 24))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 1)
	if n := m.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatalf("deleting a spilled session: %v", err)
	}
	if _, err := m.State(info.ID, false); err != ErrNotFound {
		t.Fatalf("deleted session still serveable: %v", err)
	}
	ids, err := m.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("store still holds %v after delete", ids)
	}
}

// TestSpillSkipsDeletedSession pins the janitor-vs-Delete race: the
// janitor collects a victim, Delete closes it and removes its record,
// and the janitor's spill must then skip the closed session instead of
// checkpointing it — which would resurrect the deleted record.
func TestSpillSkipsDeletedSession(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 31))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	s := m.slots[info.ID].sess
	m.mu.Unlock()
	if err := m.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if m.spill(s, func(*Session) bool { return true }) {
		t.Fatal("spill evicted a deleted session")
	}
	if ids, _ := m.Store().List(); len(ids) != 0 {
		t.Fatalf("spill resurrected the deleted record: store holds %v", ids)
	}
}

// gateLoadStore wraps a Store and parks the first Load after it has
// read the record, modelling a Delete landing while a revival is
// mid-replay. Later Loads (Delete's own lookup) pass through.
type gateLoadStore struct {
	persist.Store
	once    sync.Once
	entered chan struct{} // closed once the gated Load holds the record
	release chan struct{} // the gated Load returns after this closes
}

func (g *gateLoadStore) Load(id string) (persist.Record, bool, error) {
	rec, ok, err := g.Store.Load(id)
	gated := false
	g.once.Do(func() { gated = true })
	if gated {
		close(g.entered)
		<-g.release
	}
	return rec, ok, err
}

// TestDeleteDuringRevivalDiscards pins the revive-vs-Delete race: a
// Delete that lands after a revival has read the record but before it
// is inserted must win — the revival discards its replay instead of
// resurrecting the session.
func TestDeleteDuringRevivalDiscards(t *testing.T) {
	gate := &gateLoadStore{
		Store:   persist.NewMemStore(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	m := NewManager(Config{Workers: 1, Store: gate})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 32))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 1)
	if n := m.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}

	got := make(chan error, 1)
	go func() {
		_, err := m.State(info.ID, false) // revives; parks in the gated Load
		got <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("revival never reached the store")
	}
	if err := m.Delete(info.ID); err != nil {
		t.Fatalf("delete during revival: %v", err)
	}
	close(gate.release)
	if err := <-got; !errors.Is(err, ErrNotFound) {
		t.Fatalf("revival racing a delete returned %v, want ErrNotFound", err)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("deleted session came back to life: %d live sessions", n)
	}
	if ids, _ := m.Store().List(); len(ids) != 0 {
		t.Fatalf("store holds %v after delete", ids)
	}
	if _, err := m.State(info.ID, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still serveable: %v", err)
	}
}

// TestDeleteOfLiveSessionAdmitsNoRevival pins the Delete-vs-request race
// the lifecycle model test found: while a Delete waits for a live
// session's lock (an answer is in flight), the id must stay that
// session's. Were it to leave the table first, a request arriving in
// the gap would revive a second copy from the record Delete has not
// removed yet — and that copy would outlive the Delete.
func TestDeleteOfLiveSessionAdmitsNoRevival(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 34))
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	s := m.slots[info.ID].sess
	m.mu.Unlock()
	s.mu.Lock() // a request in flight
	deleted := make(chan error, 1)
	go func() { deleted <- m.Delete(info.ID) }()
	time.Sleep(20 * time.Millisecond) // Delete is now waiting for the session
	got, err := m.get(context.Background(), info.ID)
	if err != nil || got != s {
		t.Errorf("request while a Delete waits: session %p (%v), want the live one %p", got, err, s)
	}
	s.mu.Unlock()
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if n := m.Len(); n != 0 {
		t.Errorf("%d live sessions after Delete", n)
	}
	if ids, _ := m.Store().List(); len(ids) != 0 {
		t.Errorf("store holds %v after Delete", ids)
	}
	if _, err := m.State(info.ID, false); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted session still serveable: %v", err)
	}
}

// ghostListStore lists one id it cannot load: what a backend sees when
// another process sharing its store deletes a session between RecoverAll's
// List and Load.
type ghostListStore struct {
	persist.Store
	ghost string
}

func (g ghostListStore) List() ([]string, error) {
	ids, err := g.Store.List()
	return append(ids, g.ghost), err
}

// TestRecoverAllListedButNotLoadable: an id the store lists and no
// longer loads is reported as such, not as a nil error.
func TestRecoverAllListedButNotLoadable(t *testing.T) {
	m := NewManager(Config{Workers: 1, Store: ghostListStore{persist.NewMemStore(), "ghost"}})
	defer m.Shutdown()
	if _, err := m.Open(fastOpen("wiki", 0.05, 35)); err != nil {
		t.Fatal(err)
	}
	n, err := m.RecoverAll()
	if n != 1 {
		t.Errorf("recovered %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), `session "ghost": listed but not loadable`) || strings.Contains(err.Error(), "nil") {
		t.Errorf("RecoverAll over a listed-but-gone id: %v", err)
	}
}

// TestSnapshotVersionRoundTrip: served snapshots carry the core
// encoding version, and restore rejects a snapshot from a newer build
// instead of replaying it under changed semantics.
func TestSnapshotVersionRoundTrip(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 33))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != core.SnapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, core.SnapshotVersion)
	}
	if _, err := m.Restore(snap); err != nil {
		t.Fatalf("restoring a current-version snapshot: %v", err)
	}
	snap.Version = core.SnapshotVersion + 1
	if _, err := m.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot from a newer build")
	}
}

// handStore records what each Checkpoint is handed and can fail one
// Append.
type handStore struct {
	persist.Store
	mu       sync.Mutex
	handed   [][2]int // per checkpoint: From and the records handed over
	failNext bool
}

func (h *handStore) Checkpoint(id string, rec persist.Record) error {
	h.mu.Lock()
	h.handed = append(h.handed, [2]int{rec.From, len(rec.Elicitations)})
	h.mu.Unlock()
	return h.Store.Checkpoint(id, rec)
}

func (h *handStore) Append(id string, seq int, e core.Elicitation) error {
	h.mu.Lock()
	fail := h.failNext
	h.failNext = false
	h.mu.Unlock()
	if fail {
		return errors.New("append failed")
	}
	return h.Store.Append(id, seq, e)
}

func (h *handStore) take() [][2]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.handed
	h.handed = nil
	return out
}

// TestCheckpointsHandOnlyWhatTheStoreLacks: open hands the store the
// whole transcript; after that every checkpoint — periodic, spill,
// export — hands over no record, because every record went out as an
// append, also across a revival (an export of a spilled session
// checkpoints before any append); a failed append's repair hands the
// whole transcript again. The session stays the uninterrupted one.
func TestCheckpointsHandOnlyWhatTheStoreLacks(t *testing.T) {
	req := fastOpen("wiki", 0.08, 36)
	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, 10)

	store := &handStore{Store: persist.NewMemStore()}
	m := NewManager(Config{Workers: 1, Store: store, CheckpointEvery: 3})
	defer m.Shutdown()
	info, err := m.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.take(); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("open handed %v, want one checkpoint of the whole (empty) transcript", got)
	}
	c := NewLocalClient(m)
	mustAnswers(t, c, info.ID, 4) // one periodic checkpoint
	spill(t, m, 1)
	mustAnswers(t, c, info.ID, 3) // revived, then a periodic checkpoint
	handed := store.take()
	if len(handed) < 3 {
		t.Fatalf("checkpoints %v, want periodic, spill, periodic", handed)
	}
	for _, h := range handed {
		if h[1] != 0 || h[0] == 0 {
			t.Fatalf("checkpoints %v: one handed records over or started at 0", handed)
		}
	}
	store.mu.Lock()
	store.failNext = true
	store.mu.Unlock()
	st := mustAnswers(t, c, info.ID, 1)
	if got := store.take(); len(got) != 1 || got[0] != [2]int{0, st.Labeled} {
		t.Fatalf("the repair handed %v, want the whole transcript of %d records", got, st.Labeled)
	}
	mustAnswers(t, c, info.ID, 2)
	spill(t, m, 1)
	snap, err := m.Export(info.ID) // revives, then checkpoints at once
	if err != nil {
		t.Fatal(err)
	}
	last := store.take()
	if n := len(last); n == 0 || last[n-1][1] != 0 || last[n-1][0] != len(snap.Elicitations) {
		t.Fatalf("export handed %v for a %d-record payload, want no record", last, len(snap.Elicitations))
	}
	if _, err := m.Import(info.ID, snap); err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, servedTrace(t, m, info.ID), servedTrace(t, ref, refInfo.ID))
}

// Store returns the manager's snapshot store.
func (m *Manager) Store() persist.Store { return m.store }

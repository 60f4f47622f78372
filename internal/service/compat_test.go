package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/persist"
	"factcheck/internal/stats"
)

// The testdata/parent_store* directories are FileStore directories of
// session "compat" as a parent build left them after driveCompat: a
// checkpoint with one ingest record and a state image behind it, and a
// WAL of three lines, one of them a delta. Each was written by running
// driveCompat under the build it is named for and is never regenerated
// or edited by a later one: parent_store by 288a645, the last build
// whose sessions kept every applied delta's decoded payload in their
// transcript, parent_store_ae7000a by ae7000a, the last build whose
// checkpoints held the whole transcript, and parent_store_228e102 by
// 228e102, the last build whose state images carried no arithmetic
// identity (image format 1).
const compatID = "compat"

// compatStores lists the fixtures with the reason their first revive
// replays instead of installing the checkpoint's image ("" installs it).
// A format-1 image is refused once; the shutdown checkpoint behind the
// replay writes this build's.
var compatStores = []struct{ dir, replay string }{
	{"testdata/parent_store", core.ReplayVersion},
	{"testdata/parent_store_ae7000a", core.ReplayVersion},
	{"testdata/parent_store_228e102", core.ReplayVersion},
}

// driveCompat runs the fixture's script against a manager over a
// FileStore on dir and returns it live, WAL not yet compacted: open,
// 3 answers, a delta, 2 answers (the sixth append cuts a checkpoint),
// 1 answer, a delta, 1 answer.
func driveCompat(t *testing.T, dir string) *Manager {
	t.Helper()
	store, err := persist.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Workers: 1, Store: store, CheckpointEvery: 6})
	t.Cleanup(m.Shutdown)
	s := Script{Client: NewLocalClient(m)}
	if _, err := s.Open(compatID, fastOpen("wiki", 0.08, 2401)); err != nil {
		t.Fatal(err)
	}
	for round, n := range []int{3, 2, 1, 1} {
		mustAnswers(t, s.Client, compatID, n)
		if round == 0 || round == 2 {
			if _, resp, err := s.Ingest(0.1, stats.StreamSeed(2402, uint64(round))); err != nil || !resp.Applied {
				t.Fatalf("ingest: %+v, %v", resp, err)
			}
		}
	}
	return m
}

// TestParentBuildReadsThisBuildsStore is the "change → parent"
// direction: the parent build's own Load (parentStore, a verbatim copy)
// decodes the directory this build leaves — live after driveCompat,
// then after the shutdown checkpoint — into the very Record this
// build's Load returns, ingest records included, so the parent revives
// what this build writes exactly as it revives its own.
func TestParentBuildReadsThisBuildsStore(t *testing.T) {
	dir := t.TempDir()
	m := driveCompat(t, dir)
	for _, when := range []string{"live", "after shutdown"} {
		if when == "after shutdown" {
			m.Shutdown()
		}
		store, err := persist.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok, err := store.Load(compatID)
		if !ok || err != nil {
			t.Fatalf("%s: this build's Load: ok=%v err=%v", when, ok, err)
		}
		parent, ok, err := (&parentStore{dir}).Load(compatID)
		if !ok || err != nil {
			t.Fatalf("%s: the parent build's Load: ok=%v err=%v", when, ok, err)
		}
		want := parentRecord{Version: rec.Version, Config: rec.Config, Elicitations: rec.Elicitations, Image: rec.Image}
		if rec.From != 0 || !reflect.DeepEqual(parent, want) {
			t.Errorf("%s: the parent build reads %d records (image %d bytes), this build %d (image %d bytes, from %d)",
				when, len(parent.Elicitations), len(parent.Image), len(rec.Elicitations), len(rec.Image), rec.From)
		}
	}
}

// TestParentRecordRevives is the "parent → change" direction: a manager
// over a copy of a parent-written store revives the session — from the
// checkpoint's state image and the WAL tail behind it, or, for an image
// this build refuses, by replaying the whole transcript, deltas among
// it — and from there answers exactly as the session that never left
// memory does. Its shutdown checkpoint converts the directory to this
// build's layout, which revives to the same transcript from the new
// image.
func TestParentRecordRevives(t *testing.T) {
	for _, fixture := range compatStores {
		t.Run(filepath.Base(fixture.dir), func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range []string{compatID + ".snap", compatID + ".wal"} {
				raw, err := os.ReadFile(filepath.Join(fixture.dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			revived := compatManager(t, dir)
			live := driveCompat(t, t.TempDir())

			got, want := mustAnswers(t, NewLocalClient(revived), compatID, 2), mustAnswers(t, NewLocalClient(live), compatID, 2)
			if fixture.replay == "" {
				assertRestores(t, revived, 1, nil)
			} else {
				assertRestores(t, revived, 0, map[string]int64{fixture.replay: 1})
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("revived session stands at %+v, the live one at %+v", got, want)
			}
			// Transcripts only: the live session's image also carries the
			// gain cache entries of the rankings its two arrivals discarded.
			wantSnap, err := live.Snapshot(compatID)
			if err != nil {
				t.Fatal(err)
			}
			assertTranscript(t, revived, wantSnap)
			revived.Shutdown()
			again := compatManager(t, dir)
			assertTranscript(t, again, wantSnap)
			assertRestores(t, again, 1, nil)
		})
	}
}

func compatManager(t *testing.T, dir string) *Manager {
	t.Helper()
	store, err := persist.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Workers: 1, Store: store, CheckpointEvery: 6})
	t.Cleanup(m.Shutdown)
	return m
}

// assertTranscript checks that m's compat session holds want's
// transcript.
func assertTranscript(t *testing.T, m *Manager, want SessionSnapshot) {
	t.Helper()
	got, err := m.Snapshot(compatID)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got.Elicitations)
	wantJSON, _ := json.Marshal(want.Elicitations)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("revived and live session hold different transcripts")
	}
}

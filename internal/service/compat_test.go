package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"factcheck/internal/persist"
	"factcheck/internal/stats"
)

// testdata/parent_store is the FileStore directory of session "compat"
// as the build at commit 288a645 — the last one whose sessions kept
// every applied delta's decoded payload in their transcript — left it
// after driveCompat: a checkpoint with one ingest record and a state
// image behind it, and a WAL of three lines, one of them a delta. It
// was written by running driveCompat under that build and is never
// regenerated by this one.
const (
	compatID    = "compat"
	compatStore = "testdata/parent_store"
)

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

// TestDurableFormUnchangedSinceParent is the "change → parent"
// direction: this build, driven through the fixture's script, leaves
// the store byte for byte as the parent build left it — checkpoint
// (transcript and state image) and WAL lines alike, the ingest records
// rebuilt from the tables included — so the parent revives what this
// build writes exactly as it revives its own.
func TestDurableFormUnchangedSinceParent(t *testing.T) {
	dir := t.TempDir()
	driveCompat(t, dir)
	for _, name := range []string{compatID + ".snap", compatID + ".wal"} {
		want, err := os.ReadFile(filepath.Join(compatStore, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this build wrote %d bytes that differ from the %d the parent build wrote", name, len(got), len(want))
		}
	}
}

// TestParentRecordRevives is the "parent → change" direction: a manager
// over a copy of the parent-written store revives the session from the
// checkpoint's state image, replays the WAL tail behind it — a delta
// among it — and from there answers exactly as the session that never
// left memory does.
func TestParentRecordRevives(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{compatID + ".snap", compatID + ".wal"} {
		raw, err := os.ReadFile(filepath.Join(compatStore, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := persist.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	revived := NewManager(Config{Workers: 1, Store: store, CheckpointEvery: 6})
	defer revived.Shutdown()
	live := driveCompat(t, t.TempDir())

	got, want := mustAnswers(t, NewLocalClient(revived), compatID, 2), mustAnswers(t, NewLocalClient(live), compatID, 2)
	assertRestores(t, revived, 1, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("revived session stands at %+v, the live one at %+v", got, want)
	}
	// Transcripts only: the live session's image also carries the gain
	// cache entries of the rankings its two arrivals discarded.
	gotSnap, err := revived.Snapshot(compatID)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := live.Snapshot(compatID)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(gotSnap.Elicitations)
	wantJSON, _ := json.Marshal(wantSnap.Elicitations)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("revived and live session hold different transcripts")
	}
}

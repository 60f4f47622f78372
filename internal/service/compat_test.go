package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"factcheck/internal/persist"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
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
	req := fastOpen("wiki", 0.08, 2401)
	info, err := m.OpenAs(compatID, req)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := synth.ByName(req.Profile)
	if err != nil {
		t.Fatal(err)
	}
	shape.Claims, shape.Sources, shape.Documents = info.Claims, info.Sources, info.Documents
	for round, answers := range []int{3, 2, 1, 1} {
		answerN(t, m, compatID, answers)
		if round == 0 || round == 2 {
			d := synth.GenerateDelta(shape, 0.1, stats.StreamSeed(2402, uint64(round)))
			resp, err := m.IngestCtx(context.Background(), compatID, IngestRequest{Delta: d})
			if err != nil || !resp.Applied {
				t.Fatalf("ingest: %+v, %v", resp, err)
			}
			shape.Claims, shape.Sources, shape.Documents = resp.Claims, resp.Sources, resp.Documents
		}
	}
	return m
}

// answerN gives session id n oracle answers, each to the claim the
// session asks about, and returns the state after the last.
func answerN(t *testing.T, m *Manager, id string, n int) StateResponse {
	t.Helper()
	var st StateResponse
	for i := 0; i < n; i++ {
		next, err := m.NextCtx(context.Background(), id, 1)
		if err != nil || next.Done {
			t.Fatalf("next: %+v, %v", next, err)
		}
		if st, err = m.AnswerCtx(context.Background(), id, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true}); err != nil {
			t.Fatal(err)
		}
	}
	return st
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

	got, want := answerN(t, revived, compatID, 2), answerN(t, live, compatID, 2)
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

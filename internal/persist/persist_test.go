package persist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"factcheck/internal/core"
)

func elics(n int) []core.Elicitation {
	out := make([]core.Elicitation, n)
	for i := range out {
		out[i] = core.Elicitation{Claim: i, Verdict: i%2 == 0, OK: true}
	}
	return out
}

func testRecord(n int) Record {
	return Record{
		Config:       json.RawMessage(`{"profile":"wiki","seed":7}`),
		Elicitations: elics(n),
	}
}

func checkRecord(t *testing.T, got Record, wantElics []core.Elicitation) {
	t.Helper()
	if got.Version != Version {
		t.Fatalf("record version = %d, want %d", got.Version, Version)
	}
	var cfg struct {
		Profile string `json:"profile"`
		Seed    int64  `json:"seed"`
	}
	if err := json.Unmarshal(got.Config, &cfg); err != nil {
		t.Fatalf("config does not round-trip: %v", err)
	}
	if cfg.Profile != "wiki" || cfg.Seed != 7 {
		t.Fatalf("config lost content: %+v", cfg)
	}
	if len(got.Elicitations) != len(wantElics) {
		t.Fatalf("transcript length = %d, want %d", len(got.Elicitations), len(wantElics))
	}
	for i := range wantElics {
		if got.Elicitations[i] != wantElics[i] {
			t.Fatalf("elicitation %d = %+v, want %+v", i, got.Elicitations[i], wantElics[i])
		}
	}
}

// TestStoreConformance runs the shared Store contract over both
// backends.
func TestStoreConformance(t *testing.T) {
	backends := map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMemStore() },
		"file": func(t *testing.T) Store {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			defer st.Close()

			// Unknown sessions: not loadable, appends rejected, deletes no-ops.
			if _, ok, err := st.Load("ghost"); ok || err != nil {
				t.Fatalf("Load(ghost) = ok=%v err=%v, want miss", ok, err)
			}
			if err := st.Append("ghost", 0, core.Elicitation{}); err == nil {
				t.Fatal("append without a checkpoint accepted")
			}
			if err := st.Delete("ghost"); err != nil {
				t.Fatalf("deleting an unknown session: %v", err)
			}

			// Checkpoint + load round-trip.
			if err := st.Checkpoint("a", testRecord(2)); err != nil {
				t.Fatal(err)
			}
			rec, ok, err := st.Load("a")
			if !ok || err != nil {
				t.Fatalf("Load(a) = ok=%v err=%v", ok, err)
			}
			checkRecord(t, rec, elics(2))

			// WAL appends extend the transcript in order.
			want := elics(5)
			for seq := 2; seq < 5; seq++ {
				if err := st.Append("a", seq, want[seq]); err != nil {
					t.Fatal(err)
				}
			}
			rec, _, err = st.Load("a")
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, want)

			// Stale appends (already covered by the checkpoint) are
			// skipped, and a re-checkpoint resets the WAL.
			if err := st.Checkpoint("a", testRecord(5)); err != nil {
				t.Fatal(err)
			}
			if err := st.Append("a", 1, core.Elicitation{Claim: 99}); err != nil {
				t.Fatalf("stale append must be idempotent, got %v", err)
			}
			rec, _, err = st.Load("a")
			if err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, want)

			// A sequence gap is rejected at append time on both backends,
			// without corrupting the stored record — the serving layer
			// repairs a missed append with a full checkpoint, and that
			// only works if the store refuses to write past the hole.
			if err := st.Append("a", 9, core.Elicitation{}); err == nil {
				t.Fatal("append gap accepted")
			}
			rec, _, err = st.Load("a")
			if err != nil {
				t.Fatalf("record unloadable after rejected gap append: %v", err)
			}
			checkRecord(t, rec, want)

			// List sees every checkpointed session; Delete removes it.
			if err := st.Checkpoint("b", testRecord(0)); err != nil {
				t.Fatal(err)
			}
			ids, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(ids)
			if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
				t.Fatalf("List = %v, want [a b]", ids)
			}
			if err := st.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := st.Load("a"); ok {
				t.Fatal("session a survived Delete")
			}
			if ids, _ := st.List(); len(ids) != 1 || ids[0] != "b" {
				t.Fatalf("List after delete = %v, want [b]", ids)
			}
		})
	}
}

// TestFileStoreAppendValidatesAcrossReopen: sequence validation must
// hold even when the store has no in-process memory of the session (a
// fresh process appending after recovery) — the on-disk transcript
// length is the authority.
func TestFileStoreAppendValidatesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.Checkpoint("s", testRecord(2)); err != nil {
		t.Fatal(err)
	}
	want := elics(4)
	if err := fs1.Append("s", 2, want[2]); err != nil {
		t.Fatal(err)
	}

	fs2, err := NewFileStore(dir) // cold cache: length comes from disk
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Append("s", 4, core.Elicitation{}); err == nil {
		t.Fatal("gap append accepted after reopen")
	}
	if err := fs2.Append("s", 3, want[3]); err != nil {
		t.Fatalf("in-order append after reopen: %v", err)
	}
	if err := fs2.Append("s", 1, core.Elicitation{Claim: 99}); err != nil {
		t.Fatalf("stale append must be idempotent, got %v", err)
	}
	rec, ok, err := fs2.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, want)
}

func fileStore(t *testing.T) *FileStore {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFileStoreTornTail simulates a crash mid-append: a partial final
// WAL line is dropped on load, recovering the previous consistent state.
func TestFileStoreTornTail(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("s", testRecord(1)); err != nil {
		t.Fatal(err)
	}
	want := elics(3)
	if err := fs.Append("s", 1, want[1]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("s", 2, want[2]); err != nil {
		t.Fatal(err)
	}

	// Tear the last append in half, as a crash mid-write would.
	wal := filepath.Join(fs.Dir(), "s.wal")
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, buf[:len(buf)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := fs.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load after torn tail = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, want[:2])

	// Garbage appended after complete lines (a torn append of a new
	// entry) is likewise dropped.
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rec, _, err = fs.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want[:2])
}

// TestFileStoreCorruptMiddle: an undecodable line with valid lines
// after it cannot be a torn tail and must be reported.
func TestFileStoreCorruptMiddle(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("s", testRecord(0)); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(fs.Dir(), "s.wal")
	content := "garbage\n" + `{"seq":0,"claim":0,"verdict":true,"ok":true}` + "\n"
	if err := os.WriteFile(wal, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Load("s"); err == nil {
		t.Fatal("mid-file corruption went undetected")
	}
}

// TestFileStoreStaleWALAfterCheckpoint simulates a crash between the
// checkpoint rename and the WAL truncation: the leftover WAL duplicates
// entries the checkpoint already holds, and Load must skip them by
// sequence number instead of replaying them twice.
func TestFileStoreStaleWALAfterCheckpoint(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("s", testRecord(3)); err != nil {
		t.Fatal(err)
	}
	// Recreate the pre-compaction WAL by hand.
	want := elics(3)
	var lines []byte
	for seq := 1; seq < 3; seq++ {
		line, err := json.Marshal(walLine{Seq: seq, Elicitation: want[seq]})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(fs.Dir(), "s.wal"), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := fs.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, want)
}

// TestFileStoreCompactionDropsWAL: a checkpoint drops the WAL's
// entries but leaves the file in place, empty — from the first
// checkpoint on — so that no append ever has to create a directory
// entry (which its fsync of the file alone would not make durable).
func TestFileStoreCompactionDropsWAL(t *testing.T) {
	fs := fileStore(t)
	wal := filepath.Join(fs.Dir(), "s.wal")
	emptyWAL := func(when string) {
		t.Helper()
		if st, err := os.Stat(wal); err != nil || st.Size() != 0 {
			t.Fatalf("%s: WAL stat = %v, %v; want an empty file", when, st, err)
		}
	}
	if err := fs.Checkpoint("s", testRecord(1)); err != nil {
		t.Fatal(err)
	}
	emptyWAL("after the first checkpoint")
	if err := fs.Append("s", 1, core.Elicitation{Claim: 1, OK: true}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(wal); err != nil || st.Size() == 0 {
		t.Fatalf("WAL after append: %v, %v", st, err)
	}
	if err := fs.Checkpoint("s", testRecord(2)); err != nil {
		t.Fatal(err)
	}
	emptyWAL("after compaction")
	rec, ok, err := fs.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load over an empty WAL = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, elics(2))
	// An append after compaction lands in the emptied file.
	if err := fs.Append("s", 2, elics(3)[2]); err != nil {
		t.Fatal(err)
	}
	if rec, _, err = fs.Load("s"); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, elics(3))
	if ids, err := fs.List(); err != nil || len(ids) != 1 || ids[0] != "s" {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := fs.Delete("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("WAL survived Delete: %v", err)
	}
}

// TestFileStoreAppendHealsMissingWAL: a directory written by a build
// whose checkpoints removed the WAL has none until the next append,
// which must create it and still round-trip.
func TestFileStoreAppendHealsMissingWAL(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("s", testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(fs.Dir(), "s.wal")); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := fs.Load("s"); !ok || err != nil || len(rec.Elicitations) != 1 {
		t.Fatalf("Load without a WAL = %d elicitations, ok=%v err=%v", len(rec.Elicitations), ok, err)
	}
	want := elics(2)
	if err := fs.Append("s", 1, want[1]); err != nil {
		t.Fatal(err)
	}
	rec, _, err := fs.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want)
}

// TestFileStoreRejectsFutureVersion: a record written by a newer build
// must be rejected, not misread.
func TestFileStoreRejectsFutureVersion(t *testing.T) {
	fs := fileStore(t)
	rec := testRecord(0)
	if err := fs.Checkpoint("s", rec); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(fs.Dir(), "s.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = Version + 1
	buf, err = json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fs.Dir(), "s.snap"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Load("s"); err == nil {
		t.Fatal("future encoding version accepted")
	}
}

// TestFileStoreIgnoresForeignFiles: List skips non-checkpoint files and
// invalid ids, and weird ids never touch the filesystem.
func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("good", testRecord(0)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"orphan.wal", "note.txt", "bad id.snap"} {
		if err := os.WriteFile(filepath.Join(fs.Dir(), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("List = %v, want [good]", ids)
	}
	if err := fs.Checkpoint("../escape", testRecord(0)); err == nil {
		t.Fatal("path-traversal id accepted")
	}
	if _, ok, err := fs.Load("../escape"); ok || err != nil {
		t.Fatalf("invalid id Load = ok=%v err=%v, want clean miss", ok, err)
	}
}

package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

			// A checkpoint handed the whole transcript replaces the one
			// the store holds, even one it does not extend.
			if err := st.Checkpoint("a", testRecord(5)); err != nil {
				t.Fatal(err)
			}
			other := []core.Elicitation{{Claim: 7, OK: true}, {Claim: 8, Verdict: true, OK: true}}
			if err := st.Checkpoint("a", Record{Config: testRecord(0).Config, Elicitations: other}); err != nil {
				t.Fatal(err)
			}
			if rec, _, err = st.Load("a"); err != nil {
				t.Fatal(err)
			}
			checkRecord(t, rec, other)

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

// TestFileStoreSharedDirectory: two stores on one directory (a shard
// router's backends over a shared data dir) take turns writing a
// session. Each trusts its cached WAL length only while the WAL's size
// matches it, so neither writes a duplicate or refuses a valid seq
// after the other wrote.
func TestFileStoreSharedDirectory(t *testing.T) {
	a := fileStore(t)
	b, err := NewFileStore(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	want := elics(7)
	if err := a.Checkpoint("s", testRecord(2)); err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return b.Append("s", 2, want[2]) },
		func() error { return a.Append("s", 3, want[3]) },
		func() error { return b.Checkpoint("s", Record{Config: testRecord(0).Config, From: 4}) },
		func() error { return a.Append("s", 3, want[3]) }, // a re-append: covered
		func() error {
			return a.Checkpoint("s", Record{Config: testRecord(0).Config, Elicitations: want[4:6], From: 4})
		},
		func() error { return b.Append("s", 6, want[6]) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	for _, st := range []*FileStore{a, b} {
		rec, ok, err := st.Load("s")
		if !ok || err != nil {
			t.Fatalf("Load = ok=%v err=%v", ok, err)
		}
		checkRecord(t, rec, want)
	}
	assertWholeWAL(t, a.Dir(), "s", want, 6)
}

// TestFileStoreConcurrentSessions: writes to distinct sessions may run
// at once (the store's per-session cache is shared); each session ends
// exactly as its own writes left it.
func TestFileStoreConcurrentSessions(t *testing.T) {
	fs := fileStore(t)
	want := elics(6)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := fs.Checkpoint(id, testRecord(2)); err != nil {
				t.Error(err)
				return
			}
			for seq := 2; seq < 6; seq++ {
				if err := fs.Append(id, seq, want[seq]); err != nil {
					t.Error(err)
					return
				}
				if seq == 3 {
					if err := fs.Checkpoint(id, Record{Config: testRecord(0).Config, From: 4}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			rec, ok, err := fs.Load(id)
			if !ok || err != nil || len(rec.Elicitations) != len(want) {
				t.Errorf("session %s: Load = %d records, ok=%v err=%v", id, len(rec.Elicitations), ok, err)
			}
		}(fmt.Sprintf("s%d", i))
	}
	wg.Wait()
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

// writeLegacy writes session id in the layout of builds before
// image-only checkpoints: a snap holding the transcript up to the
// checkpoint (snapRecs) and a WAL of the lines walSeqs of want —
// which may repeat records the snap holds, as a crash between such a
// build's checkpoint rename and its WAL truncation left them. A nil
// walSeqs writes no WAL at all.
func writeLegacy(t *testing.T, dir, id string, snapRecs []core.Elicitation, want []core.Elicitation, walSeqs []int) {
	t.Helper()
	snap, err := json.Marshal(struct {
		Version      int                `json:"version"`
		Config       json.RawMessage    `json:"config"`
		Elicitations []core.Elicitation `json:"elicitations"`
	}{Version, testRecord(0).Config, snapRecs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".snap"), append(snap, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if walSeqs == nil {
		return
	}
	var lines []byte
	for _, seq := range walSeqs {
		lines, err = appendLines(lines, seq, want[seq:seq+1])
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, id+".wal"), lines, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreStaleWALAfterCheckpoint: in the legacy layout a crash
// between the checkpoint rename and the WAL truncation left WAL entries
// the snap already holds; Load skips them by sequence number instead of
// replaying them twice, an append goes behind them, and the next
// checkpoint rewrites the WAL whole, from seq 0, into this layout.
func TestFileStoreStaleWALAfterCheckpoint(t *testing.T) {
	fs := fileStore(t)
	want := elics(5)
	writeLegacy(t, fs.Dir(), "s", want[:3], want, []int{1, 2})
	rec, ok, err := fs.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, want[:3])

	if err := fs.Append("s", 3, want[3]); err != nil {
		t.Fatal(err)
	}
	if rec, _, err = fs.Load("s"); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want[:4])

	// An image-only checkpoint over the legacy layout.
	if err := fs.Checkpoint("s", Record{Config: testRecord(0).Config, From: 4}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("s", 4, want[4]); err != nil {
		t.Fatal(err)
	}
	if rec, _, err = fs.Load("s"); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want)
	assertWholeWAL(t, fs.Dir(), "s", want, 4)
}

// assertWholeWAL checks this layout on disk: the WAL is the transcript
// want, one line per record with seq = line index, and the snap holds
// none of it but vouches for its first vouched records.
func assertWholeWAL(t *testing.T, dir, id string, want []core.Elicitation, vouched int) {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(dir, id+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(wal), "\n"), "\n")
	if len(want) == 0 {
		lines = nil
	}
	if len(lines) != len(want) {
		t.Fatalf("WAL holds %d lines, want one per record (%d)", len(lines), len(want))
	}
	for i, raw := range lines {
		var line walLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil || line.Seq != i || line.Elicitation != want[i] {
			t.Fatalf("WAL line %d = %s (%v), want seq %d %+v", i, raw, err, i, want[i])
		}
	}
	buf, err := os.ReadFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapFile
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Elicitations) != 0 || snap.Records != vouched || strings.Contains(string(buf), `"elicitations"`) {
		t.Fatalf("snap %s: want no records and records = %d", buf, vouched)
	}
}

// TestFileStoreCheckpointWritesEachRecordOnce: every transcript record
// is one WAL line, written once — by the append that recorded it, or by
// the checkpoint that handed it over — and a checkpoint writes no
// record the WAL already holds. The WAL exists from a session's first
// checkpoint on, so no append has to create a directory entry (which
// its fsync of the file alone would not make durable).
func TestFileStoreCheckpointWritesEachRecordOnce(t *testing.T) {
	fs := fileStore(t)
	wal := filepath.Join(fs.Dir(), "s.wal")
	want := elics(4)
	if err := fs.Checkpoint("s", testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(wal); err != nil || st.Size() != 0 {
		t.Fatalf("WAL after the first checkpoint: %v, %v; want an empty file", st, err)
	}
	// The checkpoint hands over a record the WAL lacks: it is appended.
	if err := fs.Checkpoint("s", Record{Config: testRecord(0).Config, Elicitations: want[:1]}); err != nil {
		t.Fatal(err)
	}
	assertWholeWAL(t, fs.Dir(), "s", want[:1], 1)
	if err := fs.Append("s", 1, want[1]); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// An image-only checkpoint leaves the WAL byte for byte as it was.
	if err := fs.Checkpoint("s", Record{Config: testRecord(0).Config, Image: []byte("image"), From: 2}); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("an image-only checkpoint rewrote the WAL: %q → %q (%v)", before, after, err)
	}
	assertWholeWAL(t, fs.Dir(), "s", want[:2], 2)
	// A checkpoint from the WAL's end with one new record adds one line.
	if err := fs.Checkpoint("s", Record{Config: testRecord(0).Config, Elicitations: want[2:3], From: 2}); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.HasPrefix(after, before) {
		t.Fatalf("a checkpoint rewrote records the WAL held: %q → %q (%v)", before, after, err)
	}
	if err := fs.Append("s", 3, want[3]); err != nil {
		t.Fatal(err)
	}
	assertWholeWAL(t, fs.Dir(), "s", want, 3)
	rec, ok, err := fs.Load("s")
	if !ok || err != nil {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	checkRecord(t, rec, want)
	// A checkpoint from past the transcript's end is a gap.
	if err := fs.Checkpoint("s", Record{Config: testRecord(0).Config, From: 5}); err == nil {
		t.Fatal("checkpoint past the transcript's end accepted")
	}
	if rec, _, err = fs.Load("s"); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want)
	if err := fs.Delete("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("WAL survived Delete: %v", err)
	}
}

// TestFileStoreAppendHealsMissingWAL: a directory written by a build
// whose checkpoints removed the WAL (a legacy snap holding the whole
// transcript) has none until the next append, which must create it and
// still round-trip.
func TestFileStoreAppendHealsMissingWAL(t *testing.T) {
	fs := fileStore(t)
	want := elics(2)
	writeLegacy(t, fs.Dir(), "s", want[:1], want, nil)
	if rec, ok, err := fs.Load("s"); !ok || err != nil || len(rec.Elicitations) != 1 {
		t.Fatalf("Load without a WAL = %d elicitations, ok=%v err=%v", len(rec.Elicitations), ok, err)
	}
	if err := fs.Append("s", 1, want[1]); err != nil {
		t.Fatal(err)
	}
	rec, _, err := fs.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	checkRecord(t, rec, want)
}

// TestFileStoreShortWAL: a snap that vouches for n records over a WAL
// holding fewer — short, or missing — fails to load; it never loads as
// a shorter transcript.
func TestFileStoreShortWAL(t *testing.T) {
	fs := fileStore(t)
	if err := fs.Checkpoint("s", testRecord(3)); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(fs.Dir(), "s.wal")
	buf, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(buf[:len(buf)-1], '\n') + 1
	for name, damage := range map[string]func() error{
		"short":   func() error { return os.WriteFile(wal, buf[:cut], 0o644) },
		"torn":    func() error { return os.WriteFile(wal, buf[:len(buf)-1], 0o644) },
		"missing": func() error { return os.Remove(wal) },
	} {
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		if rec, ok, err := fs.Load("s"); err == nil {
			t.Errorf("%s WAL: Load = %d records, ok=%v; want an error", name, len(rec.Elicitations), ok)
		}
		if err := fs.Append("s", 3, core.Elicitation{}); err == nil {
			t.Errorf("%s WAL: append accepted", name)
		}
	}
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

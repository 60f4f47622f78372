package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factcheck/internal/core"
)

func TestNewFileStoreErrors(t *testing.T) {
	if _, err := NewFileStore(""); err == nil {
		t.Error("empty directory accepted")
	}
	// A regular file where a path component should be a directory.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(filepath.Join(blocker, "sub")); err == nil {
		t.Error("MkdirAll through a regular file succeeded")
	}
}

func TestFileStoreLocation(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	loc := s.Location()
	if !filepath.IsAbs(loc) {
		t.Errorf("Location %q is not absolute", loc)
	}
	abs, _ := filepath.Abs(dir)
	if loc != abs {
		t.Errorf("Location %q, want %q", loc, abs)
	}
}

func TestFileStoreRejectsInvalidIDs(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "a b", "snap\x00"} {
		if err := s.Checkpoint(id, Record{}); err == nil {
			t.Errorf("Checkpoint accepted id %q", id)
		}
		if err := s.Append(id, 0, core.Elicitation{}); err == nil {
			t.Errorf("Append accepted id %q", id)
		}
		if _, found, err := s.Load(id); found || err != nil {
			t.Errorf("Load(%q) = found=%v err=%v, want clean not-found", id, found, err)
		}
		if err := s.Delete(id); err != nil {
			t.Errorf("Delete(%q) should be a no-op, got %v", id, err)
		}
	}
}

func TestFileStoreCheckpointRenameError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the snapshot path makes the atomic
	// rename fail after the temp write succeeded.
	if err := os.Mkdir(filepath.Join(dir, "sq.snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("sq", Record{}); err == nil {
		t.Error("Checkpoint over a directory snapshot path succeeded")
	}
}

func TestFileStoreWriteFileOpenError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the temp path makes the open fail.
	if err := os.Mkdir(filepath.Join(dir, "tmp.snap.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("tmp", Record{}); err == nil {
		t.Error("Checkpoint with an unopenable temp path succeeded")
	}
}

func TestFileStoreAppendOpenError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("w", Record{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "w.wal")); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "w.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("w", 0, core.Elicitation{}); err == nil {
		t.Error("Append through a directory WAL path succeeded")
	}
}

func TestFileStoreVanishedDirErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(); err == nil {
		t.Error("List over a vanished directory succeeded")
	}
	// Delete of never-written files ignores ErrNotExist but still
	// fsyncs the (gone) directory.
	if err := s.Delete("ghost"); err == nil || !strings.Contains(err.Error(), "persist:") {
		t.Errorf("Delete over a vanished directory: got %v, want a persist error", err)
	}
}

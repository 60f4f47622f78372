package persist_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

// liveStore returns the snap and WAL bytes of a session this build
// wrote: a checkpoint handing over 3 records with an image, then 2
// appends.
func liveStore(f *testing.F) (snap, wal []byte) {
	dir := f.TempDir()
	s, err := persist.NewFileStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Checkpoint("s", persist.Record{Config: crashConfig, Elicitations: records(0, 3), Image: image("a")}); err != nil {
		f.Fatal(err)
	}
	for i, e := range records(3, 5) {
		if err := s.Append("s", 3+i, e); err != nil {
			f.Fatal(err)
		}
	}
	return readPair(f, dir, "s")
}

func readPair(f *testing.F, dir, id string) (snap, wal []byte) {
	snap, err := os.ReadFile(filepath.Join(dir, id+".snap"))
	if err != nil {
		f.Fatal(err)
	}
	if wal, err = os.ReadFile(filepath.Join(dir, id+".wal")); err != nil {
		f.Fatal(err)
	}
	return snap, wal
}

// FuzzFileStoreLoad feeds arbitrary bytes to FileStore as one session's
// snap and WAL (or the snap alone: noWAL). Nothing may panic; Load may
// refuse them, but never return a transcript shorter than the snap
// vouches for (its records count, or a legacy snap's own records), nor
// allocate by what the bytes claim rather than by their length; and
// what Load accepts, an append behind it extends by exactly one record.
// Seeds: the three parent fixture directories, a directory this build
// wrote, and its torn-tail and short-WAL damage; the committed corpus under
// testdata/fuzz/FuzzFileStoreLoad adds hostile counts, versions,
// sequence numbers and line shapes.
func FuzzFileStoreLoad(f *testing.F) {
	for _, fixture := range []string{"parent_store", "parent_store_ae7000a", "parent_store_228e102"} {
		snap, wal := readPair(f, filepath.Join("..", "service", "testdata", fixture), "compat")
		f.Add(snap, wal, false)
		f.Add(snap, wal[:len(wal)-7], false)
		f.Add(snap, []byte(nil), true)
	}
	snap, wal := liveStore(f)
	f.Add(snap, wal, false)
	f.Add(snap, wal[:len(wal)-1], false)
	f.Add(snap, wal[:len(wal)/2], false)
	f.Add(snap, []byte(nil), true)

	f.Fuzz(func(t *testing.T, snap, wal []byte, noWAL bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "s.snap"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if !noWAL {
			if err := os.WriteFile(filepath.Join(dir, "s.wal"), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := persist.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, ok, err := s.Load("s")
		runtime.ReadMemStats(&after)
		// Decoding JSON costs a small multiple of its length; a megabyte
		// beyond that sized something by a count it was fed.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+32*uint64(len(snap)+len(wal)) {
			t.Fatalf("loading %d snap and %d WAL bytes allocated %d bytes", len(snap), len(wal), grew)
		}
		if err != nil || !ok {
			return
		}
		var vouched struct {
			Records      int               `json:"records"`
			Elicitations []json.RawMessage `json:"elicitations"`
		}
		if err := json.Unmarshal(snap, &vouched); err != nil {
			t.Fatalf("Load accepted a snap that does not decode: %v", err)
		}
		if n := len(rec.Elicitations); n < vouched.Records || n < len(vouched.Elicitations) {
			t.Fatalf("Load returned %d records; the snap vouches for %d (%d inside it)", n, vouched.Records, len(vouched.Elicitations))
		}
		e := core.Elicitation{Claim: 7, OK: true}
		if err := s.Append("s", len(rec.Elicitations), e); err != nil {
			t.Fatalf("append behind the %d records Load returned: %v", len(rec.Elicitations), err)
		}
		again, ok, err := persist.Store(s).Load("s")
		if err != nil || !ok || len(again.Elicitations) != len(rec.Elicitations)+1 || again.Elicitations[len(rec.Elicitations)] != e {
			t.Fatalf("after one append Load returns %d records (ok=%v err=%v), want %d", len(again.Elicitations), ok, err, len(rec.Elicitations)+1)
		}
	})
}

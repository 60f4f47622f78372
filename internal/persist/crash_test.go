package persist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

var errCrash = errors.New("injected fault")

var crashConfig = json.RawMessage(`{"profile":"wiki","seed":7}`)

func records(from, to int) []core.Elicitation {
	out := make([]core.Elicitation, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, core.Elicitation{Claim: i, Verdict: i%3 == 0, OK: true})
	}
	return out
}

// image stands in for a state image: opaque bytes to the store.
func image(tag string) []byte { return []byte("image " + tag) }

// loaded is what Load returns, compared field by field.
type loaded struct {
	ok     bool
	config string
	image  string
	recs   []core.Elicitation
}

func load(t *testing.T, s persist.Store, id string) loaded {
	t.Helper()
	rec, ok, err := s.Load(id)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(rec.Elicitations) == 0 {
		rec.Elicitations = nil
	}
	return loaded{ok, string(rec.Config), string(rec.Image), rec.Elicitations}
}

func (l loaded) String() string {
	return fmt.Sprintf("{ok=%v image=%q %d records}", l.ok, l.image, len(l.recs))
}

// crashCases are the writes the serving layer makes, each from the
// state setup leaves: appends, the image-only checkpoint every
// CheckpointEvery answers and at spill, export and shutdown cut, a
// checkpoint that hands over records the WAL lacks, the whole-transcript
// checkpoints of open, import and a failed append's repair, and the
// first writes to directories a legacy build or a crash left behind.
var crashCases = []struct {
	name  string
	setup func(t *testing.T, s *persist.FileStore)
	op    func(s *persist.FileStore) error
}{
	{
		name: "append",
		setup: func(t *testing.T, s *persist.FileStore) {
			mustCheckpoint(t, s, persist.Record{Config: crashConfig, Elicitations: records(0, 3), Image: image("a")})
		},
		op: func(s *persist.FileStore) error { return s.Append("s", 3, records(3, 4)[0]) },
	},
	{
		name: "append behind a torn tail",
		setup: func(t *testing.T, s *persist.FileStore) {
			mustCheckpoint(t, s, persist.Record{Config: crashConfig, Elicitations: records(0, 3), Image: image("a")})
			f, err := os.OpenFile(filepath.Join(s.Dir(), "s.wal"), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"seq":3,"cla`); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *persist.FileStore) error { return s.Append("s", 3, records(3, 4)[0]) },
	},
	{
		name: "image-only checkpoint",
		setup: func(t *testing.T, s *persist.FileStore) {
			mustCheckpoint(t, s, persist.Record{Config: crashConfig, Elicitations: records(0, 2), Image: image("a")})
			mustAppend(t, s, 2, 4)
		},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Image: image("b"), From: 4})
		},
	},
	{
		name: "checkpoint handing records over",
		setup: func(t *testing.T, s *persist.FileStore) {
			mustCheckpoint(t, s, persist.Record{Config: crashConfig, Elicitations: records(0, 2), Image: image("a")})
		},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Elicitations: records(2, 5), Image: image("b"), From: 2})
		},
	},
	{
		name: "whole-transcript checkpoint",
		setup: func(t *testing.T, s *persist.FileStore) {
			mustCheckpoint(t, s, persist.Record{Config: crashConfig, Elicitations: records(0, 2), Image: image("a")})
			mustAppend(t, s, 2, 3)
		},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Elicitations: records(0, 5), Image: image("b")})
		},
	},
	{
		name:  "first checkpoint",
		setup: func(*testing.T, *persist.FileStore) {},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Elicitations: records(0, 2), Image: image("b")})
		},
	},
	{
		name: "first checkpoint over an orphan WAL",
		setup: func(t *testing.T, s *persist.FileStore) {
			if err := os.WriteFile(filepath.Join(s.Dir(), "s.wal"), []byte("garbage\n{}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Image: image("b")})
		},
	},
	{
		name: "checkpoint over a legacy layout",
		setup: func(t *testing.T, s *persist.FileStore) {
			persist.WriteLegacy(t, s.Dir(), "s", records(0, 3), nil, nil)
			mustAppend(t, s, 3, 5)
		},
		op: func(s *persist.FileStore) error {
			return s.Checkpoint("s", persist.Record{Config: crashConfig, Image: image("b"), From: 5})
		},
	},
	{
		name: "append creating a legacy layout's WAL",
		setup: func(t *testing.T, s *persist.FileStore) {
			persist.WriteLegacy(t, s.Dir(), "s", records(0, 3), nil, nil)
		},
		op: func(s *persist.FileStore) error { return s.Append("s", 3, records(3, 4)[0]) },
	},
}

func mustCheckpoint(t *testing.T, s persist.Store, rec persist.Record) {
	t.Helper()
	if err := s.Checkpoint("s", rec); err != nil {
		t.Fatal(err)
	}
}

func mustAppend(t *testing.T, s persist.Store, from, to int) {
	t.Helper()
	for i, e := range records(from, to) {
		if err := s.Append("s", from+i, e); err != nil {
			t.Fatal(err)
		}
	}
}

func newStore(t *testing.T, dir string) *persist.FileStore {
	t.Helper()
	s, err := persist.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFileStoreCrashPoints fails each filesystem step of each write in
// turn. Whether the process then dies (a fresh store recovers the
// directory) or lives on (the same store, its error returned), the
// directory loads as the record from before the write or the one from
// after it — or, for a checkpoint that hands over records the WAL
// lacked, as the record from before with a prefix of those records
// appended, the state a crash part-way through the same records'
// appends would have left (the previous image restores over it,
// replaying them). It never fails to load, and an append behind
// whatever it loads round-trips.
func TestFileStoreCrashPoints(t *testing.T) {
	for _, tc := range crashCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newStore(t, t.TempDir())
			tc.setup(t, ref)
			before := load(t, newStore(t, ref.Dir()), "s")
			steps := 0
			persist.SetFault(ref, func(string) error { steps++; return nil })
			if err := tc.op(ref); err != nil {
				t.Fatal(err)
			}
			after := load(t, newStore(t, ref.Dir()), "s")
			if steps == 0 {
				t.Fatal("the write took no filesystem step")
			}
			for k := 0; k < steps; k++ {
				for _, dies := range []bool{true, false} {
					s := newStore(t, t.TempDir())
					tc.setup(t, s)
					n := 0
					var failed string
					persist.SetFault(s, func(step string) error {
						if n++; n-1 == k {
							failed = step
							return errCrash
						}
						return nil
					})
					if err := tc.op(s); !errors.Is(err, errCrash) {
						t.Fatalf("step %d: the write returned %v, want the injected fault", k, err)
					}
					persist.SetFault(s, nil)
					if dies {
						s = newStore(t, s.Dir())
					}
					where := fmt.Sprintf("fault at step %d (%s), process dies=%v", k, failed, dies)
					got := load(t, s, "s")
					if !reflect.DeepEqual(got, after) && !extends(got, before, after) {
						t.Fatalf("%s: loads as %v; before %v, after %v", where, got, before, after)
					}
					roundTrip(t, s, got, where)
				}
			}
		})
	}
}

// extends reports whether got is the record before with some prefix of
// the records after adds appended — none of them included.
func extends(got, before, after loaded) bool {
	n := len(got.recs)
	if got.ok != before.ok || got.config != before.config || got.image != before.image ||
		n < len(before.recs) || n > len(after.recs) {
		return false
	}
	return slices.Equal(got.recs[:len(before.recs)], before.recs) && slices.Equal(got.recs, after.recs[:n])
}

// roundTrip appends one record behind got, the session s loads as, and
// checks the store loads exactly got with it; a session that loads as
// absent is checkpointed afresh instead.
func roundTrip(t *testing.T, s *persist.FileStore, got loaded, where string) {
	t.Helper()
	if !got.ok {
		rec := persist.Record{Config: crashConfig, Elicitations: records(0, 1), Image: image("c")}
		if err := s.Checkpoint("s", rec); err != nil {
			t.Fatalf("%s: checkpoint afresh: %v", where, err)
		}
		if again := load(t, newStore(t, s.Dir()), "s"); !again.ok || len(again.recs) != 1 || again.image != "image c" {
			t.Fatalf("%s: a fresh checkpoint loads as %v", where, again)
		}
		return
	}
	e := core.Elicitation{Claim: 99, OK: true}
	if err := s.Append("s", len(got.recs), e); err != nil {
		t.Fatalf("%s: append behind the recovered transcript: %v", where, err)
	}
	want := got
	want.recs = append(append([]core.Elicitation(nil), got.recs...), e)
	for _, st := range []*persist.FileStore{s, newStore(t, s.Dir())} {
		if again := load(t, st, "s"); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: after one more append loads as %v, want %v", where, again, want)
		}
	}
	wal, err := os.ReadFile(filepath.Join(s.Dir(), "s.wal"))
	if err != nil || !bytes.HasSuffix(wal, []byte("\n")) {
		t.Fatalf("%s: WAL does not end in a complete line (%v)", where, err)
	}
}

package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
)

// assertRestores checks the manager's restore counters: how many
// sessions it rebuilt from a state image and, by reason, by replay.
func assertRestores(t *testing.T, m *Manager, image int64, replay map[string]int64) {
	t.Helper()
	got := m.Metrics(false)
	if got.RestoresImage != image {
		t.Errorf("restoresImage = %d, want %d (restoresReplay %v)", got.RestoresImage, image, got.RestoresReplay)
	}
	if len(got.RestoresReplay) != len(replay) {
		t.Errorf("restoresReplay = %v, want %v", got.RestoresReplay, replay)
	}
	for reason, n := range replay {
		if got.RestoresReplay[reason] != n {
			t.Errorf("restoresReplay[%q] = %d, want %d (all: %v)", reason, got.RestoresReplay[reason], n, got.RestoresReplay)
		}
	}
}

// spill evicts every session of m to its store.
func spill(t *testing.T, m *Manager, want int) {
	t.Helper()
	if n := m.EvictIdle(0); n != want {
		t.Fatalf("evicted %d sessions, want %d", n, want)
	}
}

// TestReviveTakesTheImagePath: a spilled session comes back from the
// state image in its checkpoint — counted, timed as a restore span
// under the reviving request's trace id — and continues exactly like
// an uninterrupted twin; the image bytes the checkpoints wrote are
// accounted.
func TestReviveTakesTheImagePath(t *testing.T) {
	req := fastOpen("wiki", 0.08, 31)
	req.Communities = 3
	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, 8)

	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 4)
	spill(t, m, 1)
	if got := m.Metrics(false).ImageBytesWritten; got == 0 {
		t.Error("two checkpoints wrote no image bytes")
	}
	ctx := obs.WithTrace(context.Background(), "revive-trace")
	if _, err := m.NextCtx(ctx, info.ID, 1); err != nil {
		t.Fatalf("spilled session did not revive: %v", err)
	}
	assertRestores(t, m, 1, nil)
	if sum, ok := m.Metrics(false).Stages[obs.StageRestore]; !ok || sum.Count != 1 {
		t.Errorf("restore stage histogram: %+v, want one observation", sum)
	}
	tr, err := m.Trace(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Spans {
		found = found || sp.Stage == obs.StageRestore && sp.Trace == "revive-trace"
	}
	if !found {
		t.Errorf("no restore span under the reviving request's trace id in %+v", tr.Spans)
	}
	prom := string(PromText(m.Metrics(true)))
	for _, want := range []string{
		"factcheck_restores_image_total 1\n",
		"factcheck_image_bytes_written_total ",
		`factcheck_stage_latency_seconds_count{stage="restore"} 1` + "\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q:\n%s", want, prom)
		}
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 4)
	assertSameTrace(t, m, info.ID, ref, refInfo.ID)
}

// TestRecordWithoutImageRevivesByReplay: a record written by a build
// that knew no images (no image field), and one whose image was damaged
// at rest, revive by replay exactly as before — counted by reason — and
// continue like an uninterrupted twin.
func TestRecordWithoutImageRevivesByReplay(t *testing.T) {
	req := fastOpen("wiki", 0.08, 33)
	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, 6)

	for _, tc := range []struct {
		reason string
		damage func(rec *persist.Record)
	}{
		{core.ReplayNoImage, func(rec *persist.Record) { rec.Image = nil }},
		{core.ReplayChecksum, func(rec *persist.Record) { rec.Image[len(rec.Image)-1] ^= 1 }},
		{core.ReplayVersion, func(rec *persist.Record) { rec.Image[4]++ }},
	} {
		store := persist.NewMemStore()
		m := NewManager(Config{Workers: 1, Store: store})
		info, err := m.Open(req)
		if err != nil {
			t.Fatal(err)
		}
		mustAnswers(t, NewLocalClient(m), info.ID, 3)
		spill(t, m, 1)
		rec, ok, err := store.Load(info.ID)
		if err != nil || !ok || len(rec.Image) == 0 {
			t.Fatalf("%s: spilled record: ok=%v err=%v image=%d bytes", tc.reason, ok, err, len(rec.Image))
		}
		tc.damage(&rec)
		if err := store.Checkpoint(info.ID, rec); err != nil {
			t.Fatal(err)
		}
		mustAnswers(t, NewLocalClient(m), info.ID, 3)
		assertRestores(t, m, 0, map[string]int64{tc.reason: 1})
		if want := `factcheck_restores_replay_total{reason="` + tc.reason + `"} 1` + "\n"; !strings.Contains(string(PromText(m.Metrics(true))), want) {
			t.Errorf("exposition lacks %q", want)
		}
		assertSameTrace(t, m, info.ID, ref, refInfo.ID)
		m.Shutdown()
	}
}

// TestRestoreSnapshotPaths: the snapshot form of session creation
// takes the image when the payload has one and replays when it was
// stripped, landing on the same session either way.
func TestRestoreSnapshotPaths(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 35))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 3)
	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Image) == 0 {
		t.Fatal("snapshot carries no state image")
	}
	a, err := m.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertRestores(t, m, 1, nil)
	snap.Image = nil
	b, err := m.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertRestores(t, m, 1, map[string]int64{core.ReplayNoImage: 1})
	mustAnswers(t, NewLocalClient(m), a.ID, 2)
	mustAnswers(t, NewLocalClient(m), b.ID, 2)
	assertSameTrace(t, m, a.ID, m, b.ID)
}

// TestRestoreSpanIsWallClocked: with the manager's injectable clock
// jumping an hour per call, a restore span timed through it would read
// hours; spans use time.Now (the wallclock analyzer's rule).
func TestRestoreSpanIsWallClocked(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	base := time.Now()
	calls := 0
	m.nowFn = func() time.Time { calls++; return base.Add(time.Duration(calls) * time.Hour) }
	info, err := m.Open(fastOpen("wiki", 0.08, 37))
	if err != nil {
		t.Fatal(err)
	}
	spill(t, m, 1)
	if _, err := m.State(info.ID, false); err != nil {
		t.Fatal(err)
	}
	if sum := m.Metrics(false).Stages[obs.StageRestore]; sum.Count != 1 || sum.Max > 60 {
		t.Errorf("restore stage %+v: want one wall-clocked observation", sum)
	}
	// The checkpoint written at open — before any ranking — already
	// carries an image the revival takes.
	assertRestores(t, m, 1, nil)
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

// imageFixture is a small session with everything an image can hold: a
// multi-component corpus (so the gain cache has clean components),
// repair prompts (ConfirmEvery), a mid-session ingest, a full sweep
// every 4th answer.
type imageFixture struct {
	base synth.Profile
	opts Options
}

func newImageFixture() imageFixture {
	opts := fastOpts(7102)
	opts.CandidatePool = 8
	opts.ConfirmEvery = 0.05
	return imageFixture{base: synth.Wikipedia.Scaled(0.4), opts: opts}
}

func (f imageFixture) corpus() *synth.Corpus { return synth.GenerateCommunities(f.base, 3, 7101) }

// run answers a fresh session by oracle for the given number of
// answers, ingesting one delta after ingestAfter of them (< 0: never);
// each is called after every answer and after the ingest.
func (f imageFixture) run(t testing.TB, answers, ingestAfter int, each func(s *Session)) *Session {
	t.Helper()
	c := f.corpus()
	s, err := OpenSession(c.DB, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	user := &sim.Oracle{Truth: c.Truth}
	for i := 0; i < answers; i++ {
		if i == ingestAfter {
			d := synth.GenerateDelta(f.base.At(s.DB.Stats()), 0.05, 7103)
			if _, err := s.Ingest(d); err != nil {
				t.Fatal(err)
			}
			user.Truth = append(user.Truth, d.Truth...)
			if each != nil {
				each(s)
			}
		}
		s.Step(user)
		if each != nil {
			each(s)
		}
	}
	return s
}

// TestRestoreImagePlusTail: an image taken at transcript position n
// stays good as the transcript grows behind it — restore installs it
// and replays only the tail, ingest records included, landing on the
// state the uninterrupted session is in. The tail runs to a
// checkpoint's worth of answers (the serving layer re-images every
// 16th) and the image is taken once without and once with a computed
// ranking (which the first tail record, an answer or the ingest,
// consumes or discards).
func TestRestoreImagePlusTail(t *testing.T) {
	f := newImageFixture()
	for _, peek := range []bool{false, true} {
		const imageAt, ingestAt, tail = 3, 5, 16
		var image []byte
		n, steps := 0, 0
		f.run(t, imageAt+tail, ingestAt, func(s *Session) {
			steps++
			if image == nil {
				if steps < imageAt {
					return
				}
				if peek {
					if _, err := s.Pending(0); err != nil {
						t.Fatal(err)
					}
				}
				image, n = s.Snapshot().Image, s.TranscriptLen()
				return
			}
			snap := s.Snapshot()
			snap.Image = image
			at := fmt.Sprintf("peek=%v image at %d, transcript %d", peek, n, len(snap.Elicitations))
			restored, err := RestoreSession(f.corpus().DB, f.opts, snap)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if r := restored.Restored(); !r.Image || r.Replayed != len(snap.Elicitations)-n {
				t.Fatalf("%s: restore took %+v, want the image and a replay of the tail", at, r)
			}
			assertSameState(t, at, restored, s)
		})
	}
}

// TestRestoreImageAcrossModes hands a session off at open and at every
// step — the image-restored session carries on, and is compared with a
// replay of the same transcript — in each mode a session can run in: the default
// cadence, per-answer EM without a gain cache, batch selection, every
// strategy, a user who errs and skips under confirmation checks (repair
// prompts, re-elicitation memory), and degraded rankings in between.
func TestRestoreImageAcrossModes(t *testing.T) {
	base := synth.Wikipedia.Scaled(0.25)
	corpus := func() *synth.Corpus { return synth.GenerateCommunities(base, 2, 7201) }
	for _, tc := range []struct {
		name    string
		opts    func(*Options)
		careful bool // answer by an erring, skipping user
	}{
		{name: "default"},
		{name: "per-answer EM", opts: func(o *Options) { o.FullSweepEvery = 1 }},
		{name: "batch", opts: func(o *Options) { o.BatchSize = 3 }},
		{name: "info", opts: func(o *Options) { o.Strategy = guidance.InfoGain{} }},
		{name: "source", opts: func(o *Options) { o.Strategy = guidance.SourceGain{} }},
		{name: "uncertainty", opts: func(o *Options) { o.Strategy = guidance.Uncertainty{} }},
		{name: "random", opts: func(o *Options) { o.Strategy = guidance.Random{} }},
		{name: "repairs", opts: func(o *Options) { o.ConfirmEvery = 0.05 }, careful: true},
	} {
		opts := fastOpts(7202)
		if tc.opts != nil {
			tc.opts(&opts)
		}
		c := corpus()
		s, err := OpenSession(c.DB, opts)
		if err != nil {
			t.Fatal(err)
		}
		var user User = &sim.Oracle{Truth: c.Truth}
		if tc.careful {
			user = sim.NewSkipper(sim.NewErroneous(c.Truth, 0.3, 7203), 0.2, 7204)
		}
		prompted := 0
		for i := -1; i < 10; i++ { // -1: the image of a just-opened session
			if i >= 0 {
				s.SetDegraded(i%4 == 2)
				s.Step(user)
			}
			at := fmt.Sprintf("%s, step %d", tc.name, i)
			snap := s.Snapshot()
			restored, err := RestoreSession(corpus().DB, opts, snap)
			if err != nil {
				t.Fatalf("%s: restore from image: %v", at, err)
			}
			if r := restored.Restored(); !r.Image {
				t.Fatalf("%s: restore took %+v, want the image", at, r)
			}
			snap.Image = nil
			replayed, err := RestoreSession(corpus().DB, opts, snap)
			if err != nil {
				t.Fatalf("%s: restore by replay: %v", at, err)
			}
			if opts.BatchSize < 2 {
				assertSameState(t, at, restored, replayed)
			} else if !bytes.Equal(imageSansGains(restored), imageSansGains(replayed)) {
				t.Fatalf("%s: sessions encode to different state images", at) // no Pending in batch mode
			}
			if restored.LastRankingDegraded() != s.LastRankingDegraded() {
				t.Fatalf("%s: the last ranking's mode did not survive", at)
			}
			prompted += len(restored.prompted)
			s = restored
		}
		if tc.careful && prompted == 0 {
			t.Errorf("%s: no confirmation check re-elicited anything; the case is vacuous", tc.name)
		}
	}
}

// patched returns a copy of image with the 8 bytes at off replaced.
func patched(image []byte, off int, v uint64) []byte {
	out := append([]byte(nil), image...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// resealed returns header + payload with the header's payload length
// and checksum made right for it, so that a damaged payload gets past
// the checksum and into the section decoders.
func resealed(header, payload []byte) []byte {
	out := append(append([]byte(nil), header[:imageHeaderLen]...), payload...)
	binary.LittleEndian.PutUint64(out[40:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[48:], uint64(crc32.Checksum(payload, castagnoli)))
	return out
}

// statefulStrategy is a caller-supplied strategy: the session cannot
// know what it keeps between rankings.
type statefulStrategy struct{ guidance.InfoGain }

// TestRestoreImageFallbackMatrix: whatever is wrong with an image — or
// with what it is restored against — the outcome is the one replay of
// the bare transcript has under the same database and options, the
// reason is reported, and nothing panics. Never a fork: an image is
// installed whole or not looked at again.
func TestRestoreImageFallbackMatrix(t *testing.T) {
	f := newImageFixture()
	live := f.run(t, 9, 4, nil)
	if _, err := live.Pending(0); err != nil {
		t.Fatal(err)
	}
	good := live.Snapshot()
	n := uint64(len(good.Elicitations))
	header, payload := good.Image[:imageHeaderLen], good.Image[imageHeaderLen:]

	type row struct {
		name   string
		snap   func() Snapshot // default: good with the row's image
		image  []byte
		opts   func(*Options)
		corpus func() *synth.Corpus
		reason string
	}
	withImage := func(img []byte) func() Snapshot {
		return func() Snapshot { s := good; s.Image = img; return s }
	}
	rows := []row{
		{name: "intact", image: good.Image, reason: ""},
		{name: "no image", image: nil, reason: ReplayNoImage},
		{name: "empty image", image: []byte{}, reason: ReplayNoImage},
		{name: "shorter than the header", image: good.Image[:imageHeaderLen-1], reason: ReplayTruncated},
		{name: "header only", image: good.Image[:imageHeaderLen], reason: ReplayTruncated},
		{name: "last byte missing", image: good.Image[:len(good.Image)-1], reason: ReplayTruncated},
		{name: "trailing byte", image: append(append([]byte(nil), good.Image...), 0), reason: ReplayTruncated},
		{name: "not an image", image: patched(good.Image, 0, 0x1122334455667788), reason: ReplayMagic},
		{name: "bumped format version", image: patched(good.Image, 4, uint64(imageVersion+1)|(traceFingerprint&0xffffffff)<<32), reason: ReplayVersion},
		{name: "bumped trace fingerprint", image: patched(good.Image, 8, traceFingerprint+1), reason: ReplayTrace},
		{name: "another arithmetic", image: patched(good.Image, 56, arithmetic()^1), reason: ReplayArithmetic},
		{name: "format 1, before the arithmetic identity", image: func() []byte {
			img := append(append([]byte(nil), good.Image[:56]...), payload...)
			binary.LittleEndian.PutUint32(img[4:], 1)
			return img
		}(), reason: ReplayVersion},
		{name: "other configuration fingerprint", image: patched(good.Image, 16, 1), reason: ReplayConfig},
		{name: "n past the transcript", image: patched(good.Image, 24, n+1), reason: ReplayLength},
		{name: "n short of the image's transcript", image: patched(good.Image, 24, n-1), reason: ReplayTranscript},
		{name: "wrong transcript digest", image: patched(good.Image, 32, 42), reason: ReplayTranscript},
		{name: "payload byte flipped", image: func() []byte {
			img := append([]byte(nil), good.Image...)
			img[imageHeaderLen+len(payload)/2] ^= 0x10
			return img
		}(), reason: ReplayChecksum},
		{name: "checksum flipped", image: patched(good.Image, 48, 7), reason: ReplayChecksum},
		{name: "transcript edited under the image", snap: func() Snapshot {
			s := good
			s.Elicitations = append([]Elicitation(nil), good.Elicitations...)
			s.Elicitations[1].Verdict = !s.Elicitations[1].Verdict
			return s
		}, reason: ReplayTranscript},
		{name: "transcript cut short of the image", snap: func() Snapshot {
			s := good
			s.Elicitations = good.Elicitations[:n-2]
			return s
		}, reason: ReplayLength},
		{name: "other seed", image: good.Image, opts: func(o *Options) { o.Seed++ }, reason: ReplayConfig},
		{name: "other candidate pool", image: good.Image, opts: func(o *Options) { o.CandidatePool = 5 }, reason: ReplayConfig},
		{name: "other Gibbs budget", image: good.Image, opts: func(o *Options) { o.EM.IncSamples++ }, reason: ReplayConfig},
		{name: "other strategy", image: good.Image, opts: func(o *Options) { o.Strategy = guidance.InfoGain{} }, reason: ReplayConfig},
		{name: "caller-supplied strategy", image: good.Image, opts: func(o *Options) { o.Strategy = statefulStrategy{} }, reason: ReplayConfig},
		{name: "other corpus shape", image: good.Image, corpus: func() *synth.Corpus {
			return synth.GenerateCommunities(synth.Wikipedia.Scaled(0.5), 3, 7101)
		}, reason: ReplayConfig},
		{name: "other worker count is the same configuration", image: good.Image, opts: func(o *Options) { o.Workers = 3 }, reason: ""},
	}
	// A payload cut at any length — every section boundary among them —
	// and resealed so the checksum vouches for it must fail its bounds
	// checks; so must one with bytes to spare.
	base := f.corpus().DB // decodeImage touches nothing
	for cut := 0; cut < len(payload); cut++ {
		if img, reason := decodeImage(base, f.opts.withDefaults(), live.config, withImage(resealed(header, payload[:cut]))()); img != nil || reason != ReplayPayload {
			t.Fatalf("payload cut to %d of %d bytes and resealed: decoded %v, reason %q; want a bounds failure", cut, len(payload), img != nil, reason)
		}
	}
	for _, cut := range []int{0, 1, 5, len(payload) / 3, len(payload) - 1} {
		rows = append(rows, row{name: fmt.Sprintf("payload cut to %d bytes, resealed", cut), image: resealed(header, payload[:cut]), reason: ReplayPayload})
	}
	rows = append(rows, row{name: "payload with a byte to spare, resealed", image: resealed(header, append(append([]byte(nil), payload...), 0)), reason: ReplayPayload})

	for _, r := range rows {
		snap := withImage(r.image)
		if r.snap != nil {
			snap = r.snap
		}
		opts := f.opts
		if r.opts != nil {
			r.opts(&opts)
		}
		corpus := f.corpus
		if r.corpus != nil {
			corpus = r.corpus
		}
		bare := snap()
		bare.Image = nil
		want, wantErr := RestoreSession(corpus().DB, opts, bare)
		got, err := RestoreSession(corpus().DB, opts, snap())
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: restore error %v, replay of the bare transcript %v", r.name, err, wantErr)
			continue
		}
		if err != nil {
			continue // replay refuses this transcript under this configuration; so did we
		}
		if res := got.Restored(); res.Reason != r.reason || res.Image != (r.reason == "") {
			t.Errorf("%s: restore took %+v, want reason %q", r.name, res, r.reason)
		}
		assertSameState(t, r.name, got, want)
	}

	// A session whose strategy may keep state writes no image at all.
	opts := f.opts
	opts.Strategy = statefulStrategy{}
	s, err := OpenSession(f.corpus().DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if img := s.Snapshot().Image; img != nil {
		t.Errorf("a session over a caller-supplied strategy wrote a %d-byte image", len(img))
	}
	// So does a closed one: Close drops a computed ranking without
	// rewinding the draws behind it.
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if img := live.Snapshot().Image; img != nil {
		t.Errorf("a closed session wrote a %d-byte image", len(img))
	}
}

// TestImageEncodingDeterministic: the same state encodes to the same
// bytes, whichever process reached it — two same-seed sessions driven
// identically, and a session restored from the image.
func TestImageEncodingDeterministic(t *testing.T) {
	f := newImageFixture()
	a, b := f.run(t, 7, 3, nil).Snapshot(), f.run(t, 7, 3, nil).Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identically driven sessions snapshot differently")
	}
	restored, err := RestoreSession(f.corpus().DB, f.opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), a) {
		t.Fatal("a session restored from an image snapshots differently from the session that wrote it")
	}
}

// TestImageSeedInstallsUnderItsArithmetic: the committed fuzz seed
// testdata/fuzz/FuzzRestoreImage/image is the fixture's image as the
// host that wrote it encoded it. Under that host's arithmetic it is the
// image and installs; under any other it is refused as foreign, and the
// session replays — FuzzRestoreImage then holds either outcome to the
// session replay builds.
func TestImageSeedInstallsUnderItsArithmetic(t *testing.T) {
	seed := imageSeed(t)
	fx := newImageFixture()
	live := fx.run(t, 6, 3, nil)
	if _, err := live.Pending(0); err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	snap.Image = seed
	s, err := RestoreSession(fx.corpus().DB, fx.opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	got, native := s.Restored(), binary.LittleEndian.Uint64(seed[56:]) == arithmetic()
	if native && (!got.Image || !bytes.Equal(seed, live.Snapshot().Image)) {
		t.Errorf("the seed carries this host's arithmetic but restores %+v (the fixture's image is %v)", got, bytes.Equal(seed, live.Snapshot().Image))
	}
	if !native && got.Reason != ReplayArithmetic {
		t.Errorf("the seed carries another arithmetic (%#x, here %#x) but restores %+v", binary.LittleEndian.Uint64(seed[56:]), arithmetic(), got)
	}
	t.Logf("seed written under this arithmetic: %v; restore %+v", native, got)
}

// imageSeed reads the committed fuzz seed
// testdata/fuzz/FuzzRestoreImage/image.
func imageSeed(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestoreImage", "image"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil || len(lit) < imageHeaderLen {
		t.Fatalf("seed literal %.40q: %v", lines[1], err)
	}
	return []byte(lit)
}

// TestFinishedRestoreDropsGainEntries: an image that carries gain
// entries — one a session wrote before it was finished, or a build
// that kept them at Done — restores a session that is Done under the
// options it is restored with (a budget the image's transcript has
// spent: Budget is no part of the configuration fingerprint) by image,
// holding the entries: the restore releases nothing. Released, it holds
// no gain entry, its epochs as the image wrote them, and its image is
// the writer's less its gain entries. The fixture's own image always;
// the committed fuzz seed, an image of the same session from an earlier
// build, too when it carries this host's arithmetic.
func TestFinishedRestoreDropsGainEntries(t *testing.T) {
	fx := newImageFixture()
	live := fx.run(t, 6, 3, nil)
	if _, err := live.Pending(0); err != nil { // as the seed's writer did
		t.Fatal(err)
	}
	snap := live.Snapshot()
	if bytes.Equal(snap.Image, imageLessGainEntries(live)) {
		t.Fatal("the fixture's image carries no gain entry; the test needs one that does")
	}
	type image struct {
		name  string
		bytes []byte
	}
	images := []image{{"fixture", snap.Image}}
	if seed := imageSeed(t); binary.LittleEndian.Uint64(seed[56:]) == arithmetic() {
		images = append(images, image{"committed seed", seed})
	}
	opts := fx.opts
	opts.Budget = live.State.NumLabeled()
	for _, img := range images {
		name := img.name
		at := snap
		at.Image = img.bytes
		s, err := RestoreSession(fx.corpus().DB, opts, at)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !s.Restored().Image || !s.Done() {
			t.Fatalf("%s: restored %+v, done %v; want by image, done", name, s.Restored(), s.Done())
		}
		if bytes.Equal(s.Image(), imageLessGainEntries(s)) {
			t.Errorf("%s: the restore dropped the image's gain entries", name)
		}
		s.Release()
		if !bytes.Equal(s.Image(), imageLessGainEntries(s)) {
			t.Errorf("%s: the restored finished session keeps gain entries", name)
		}
		if !bytes.Equal(s.Image(), imageLessGainEntries(live)) {
			t.Errorf("%s: the restored session's image is not the writer's less its gain entries", name)
		}
		for comp := 0; comp < s.DB.NumComponents(); comp++ {
			if s.GainCache().SweepSeed(comp) != live.GainCache().SweepSeed(comp) {
				t.Fatalf("%s: the epochs of component %d moved in the restore", name, comp)
			}
		}
	}
}

// FuzzRestoreImage feeds arbitrary bytes to RestoreSession as the state
// image of a fixed small session. Raw, they must either be refused —
// and the session then be the one replay builds — or be the image, and
// the session equal to replay all the same; nothing may panic, and
// decoding may not allocate beyond what the corpus accounts for.
// Resealed (length and checksum made right, so mutations reach the
// section decoders instead of dying at the checksum), a payload that
// passes every bounds check describes some other session: that one
// must still be safe to rank, step and snapshot.
func FuzzRestoreImage(f *testing.F) {
	fx := newImageFixture()
	live := fx.run(f, 6, 3, nil)
	if _, err := live.Pending(0); err != nil {
		f.Fatal(err)
	}
	good := live.Snapshot()
	bare := good
	bare.Image = nil
	reference, err := RestoreSession(fx.corpus().DB, fx.opts, bare)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := reference.Pending(0); err != nil {
		f.Fatal(err)
	}
	want := imageSansGains(reference)

	f.Add(good.Image, false)
	f.Add(good.Image, true)
	f.Add(good.Image[:imageHeaderLen], true)
	f.Add(good.Image[:len(good.Image)/2], true)
	f.Add(patched(good.Image, 24, 2), false)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= imageHeaderLen {
			data = resealed(data, data[imageHeaderLen:])
		}
		snap := good
		snap.Image = data

		var before, after runtime.MemStats
		db := fx.corpus().DB
		runtime.ReadMemStats(&before)
		decodeImage(db, fx.opts.withDefaults(), live.config, snap)
		runtime.ReadMemStats(&after)
		// The fixture's whole image is a few KB; a decode that allocated
		// a megabyte sized something by the bytes it was fed.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("decoding a %d-byte image allocated %d bytes", len(data), grew)
		}

		s, err := RestoreSession(db, fx.opts, snap)
		if err != nil {
			t.Fatalf("restore failed over a transcript that replays: %v", err)
		}
		if res := s.Restored(); res.Image == (res.Reason != "") {
			t.Fatalf("restore reports %+v", res)
		}
		if _, err := s.Pending(0); err != nil {
			t.Fatal(err)
		}
		if !reseal && !reflect.DeepEqual(imageSansGains(s), want) {
			t.Fatalf("restore (%+v) built a session replay does not build", s.Restored())
		}
		s.Step(&sim.Oracle{Truth: make([]bool, s.DB.NumClaims)})
		s.Snapshot()
	})
}

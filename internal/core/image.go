package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/stats"
	"factcheck/internal/wire"
)

// A session has two durable forms (DESIGN.md §10). The transcript is
// the definition: replaying it against the same database and options
// rebuilds the session bit-identically. The state image
// (Snapshot.Image) is a verified accelerator: exactly the parts of a
// session that are a function of the transcript, in a deterministic
// binary encoding, behind a header that says which transcript, which
// configuration, which build and which arithmetic they are a function
// of. RestoreSession installs an image only when every header field
// matches and every section passes its bounds checks — and then only
// whole; anything else restores by replay from position 0.
//
// Layout: a fixed header of imageHeaderLen bytes
//
//	 0  magic "FCSI"
//	 4  format version (uint32)
//	 8  trace fingerprint
//	16  configuration fingerprint (options, seed, base corpus shape)
//	24  n, the transcript length the image is the state after
//	32  digest of the first n elicitations
//	40  payload length
//	48  CRC-32C of the payload
//	56  arithmetic identity (see arithmetic)
//
// then the payload: the corpus shape after the prefix's ingests, the
// session's own fields, and the sections of the gain cache, the state
// and the engine (chain and Ω* inside), each encoded by its package.
const (
	imageMagic     = "FCSI"
	imageVersion   = 2
	imageHeaderLen = 64
)

// traceFingerprint names the arithmetic images of this build are a
// function of: the FNV-1a hash of testdata/golden_trace.json, which
// TestGoldenSelectionTrace asserts. A change that moves selection
// traces must regenerate the golden file, the test then demands the new
// hash here, and every image written before stops matching.
const traceFingerprint uint64 = 0x8ae936c0e0e3d626

// arithmetic is the host arithmetic images of this process are a
// function of: GOARCH and the FNV-1a hash of a fixed probe through the
// kernels a session's state depends on — math.Exp, Log and Log1p at
// arithmeticProbe points each (products rounded explicitly, so every
// architecture probes the same inputs), then gibbs' sigmoid table. Go's
// math kernels round differently across architectures and, on amd64,
// with and without FMA (math.Exp's assembly takes the FMA path at run
// time), and a chain that drew one value differently walks elsewhere
// from then on: an image from another arithmetic would restore a
// session that replay here does not build. It is computed on first
// use, once per process. A probe can miss a difference a session would
// hit; among the arithmetics measured (amd64 with and without FMA,
// 386) every pair already differs in the sigmoid table, and in the
// kernel probe from 64 points up.
var arithmetic = sync.OnceValue(func() uint64 {
	h := fnv.New64a()
	h.Write([]byte(runtime.GOARCH))
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for k := range arithmeticProbe {
		u := (float64(k) + 0.5) / arithmeticProbe
		put(math.Exp(float64(80*u) - 40))
		put(math.Log(64 * u))
		put(math.Log1p(float64(4*u) - 0.99))
	}
	for _, p := range gibbs.SigmoidTable() {
		put(p)
	}
	return h.Sum64()
})

// arithmeticProbe is how many points each kernel is probed at.
const arithmeticProbe = 1024

// Why a restore did not use a state image; Restored.Reason and the
// serving layer's restores_replay counter are keyed by these.
const (
	ReplayNoImage    = "none"              // the snapshot carries none
	ReplayTruncated  = "truncated"         // shorter than its header or its declared payload
	ReplayMagic      = "magic"             // not an image
	ReplayVersion    = "version"           // another format version
	ReplayTrace      = "trace"             // another trace fingerprint
	ReplayArithmetic = "arithmetic"        // written under another host arithmetic
	ReplayConfig     = "config"            // other options, seed, strategy or corpus shape
	ReplayLength     = "transcript_len"    // covers more elicitations than the snapshot has
	ReplayTranscript = "transcript_digest" // a function of another transcript
	ReplayChecksum   = "checksum"          // payload corrupted
	ReplayPayload    = "payload"           // a section failed its bounds checks
)

// Restored reports how RestoreSession rebuilt a session.
type Restored struct {
	// Image is set when a state image was installed; Reason says why
	// not otherwise (one of the Replay* constants; "" for a session
	// that was opened, not restored).
	Image  bool
	Reason string
	// Replayed counts the elicitations replayed: the whole transcript
	// without an image, the tail behind it with one.
	Replayed int
}

// Restored reports how the session came to be; the zero value means it
// was opened fresh.
func (s *Session) Restored() Restored { return s.restored }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// statelessStrategy reports whether everything the strategy carries
// from one ranking to the next lives in the session (Hybrid's Z is set
// from zScore before every use). An image cannot capture state a
// caller-supplied strategy keeps for itself, so such sessions neither
// write nor accept one.
func statelessStrategy(s guidance.Strategy) bool {
	switch s.(type) {
	case *guidance.Hybrid, guidance.InfoGain, guidance.SourceGain, guidance.Uncertainty, guidance.Random:
		return true
	}
	return false
}

// configFingerprint hashes what, besides the transcript, a session's
// state is a function of: the trace-affecting options (parallelism and
// lanes are trace-neutral and left out), the seed, and the shape of the
// corpus the session was opened over. opts must carry its defaults.
func configFingerprint(db *factdb.DB, opts Options) uint64 {
	h := fnv.New64a()
	// Writes to a hash never fail. %v prints floats in their shortest
	// round-tripping form. batchW and the engine's M-step settings,
	// constants, keep the places they had as options
	// (em.Config.FingerprintText), so stored fingerprints still match.
	fmt.Fprintf(h, "%s|%d|%v|%d|%v|%d|%d|%s|%+v", opts.Strategy.Name(), opts.BatchSize, batchW,
		opts.CandidatePool, opts.ConfirmEvery, opts.FullSweepEvery, opts.Seed, opts.EM.FingerprintText(), db.Stats())
	fmt.Fprintf(h, "|%d|%d", db.SourceFeatureDim(), db.DocFeatureDim())
	return h.Sum64()
}

// digestElicitation extends the running transcript digest h by one
// record. The digest is prefix-incremental — a session keeps it current
// as its transcript grows, so writing an image never re-reads the
// transcript — and covers every field replay consumes, ingested deltas
// included.
func digestElicitation(h uint64, e Elicitation) uint64 {
	mix := func(w uint64) { h = uint64(stats.StreamSeed(h, w)) }
	flag := func(v bool, bit uint64) uint64 {
		if v {
			return bit
		}
		return 0
	}
	mix(flag(e.Verdict, 1) | flag(e.OK, 2) | flag(e.Degraded, 4) | flag(e.Ingest != nil, 8))
	mix(uint64(e.Claim))
	if d := e.Ingest; d != nil {
		floats := func(fs []float64) {
			mix(uint64(len(fs)))
			for _, f := range fs {
				mix(math.Float64bits(f))
			}
		}
		mix(uint64(d.NewClaims))
		mix(uint64(len(d.Sources)))
		for _, s := range d.Sources {
			floats(s.Features)
		}
		mix(uint64(len(d.Documents)))
		for _, doc := range d.Documents {
			mix(uint64(doc.Source))
			floats(doc.Features)
			mix(uint64(len(doc.Refs)))
			for _, ref := range doc.Refs {
				mix(uint64(ref.Claim))
				mix(uint64(ref.Stance))
			}
		}
		mix(uint64(len(d.Truth)))
		for _, t := range d.Truth {
			mix(flag(t, 1))
		}
	}
	return h
}

// corpusShape is what the payload's sections are sized by; ingests
// counts the deltas that grew the base corpus to it.
type corpusShape struct {
	claims, sources, docs, cliques, ingests int
}

// shapeAfter returns db's shape once the ingest records of prefix are
// applied (none of which has been), without touching db.
func shapeAfter(db *factdb.DB, prefix []Elicitation) corpusShape {
	c := corpusShape{claims: db.NumClaims, sources: len(db.Sources), docs: len(db.Documents), cliques: db.NumCliques()}
	for _, e := range prefix {
		if d := e.Ingest; d != nil {
			c.claims += d.NewClaims
			c.sources += len(d.Sources)
			c.docs += len(d.Documents)
			for _, doc := range d.Documents {
				c.cliques += len(doc.Refs)
			}
			c.ingests++
		}
	}
	return c
}

// appendImage encodes the session's state image.
func (s *Session) appendImage() []byte {
	b := make([]byte, imageHeaderLen, imageHeaderLen+64+32*s.DB.NumClaims)
	copy(b, imageMagic)
	binary.LittleEndian.PutUint32(b[4:], imageVersion)
	binary.LittleEndian.PutUint64(b[8:], traceFingerprint)
	binary.LittleEndian.PutUint64(b[16:], s.config)
	binary.LittleEndian.PutUint64(b[24:], uint64(len(s.elog)))
	binary.LittleEndian.PutUint64(b[32:], s.digest)
	binary.LittleEndian.PutUint64(b[56:], arithmetic())

	shape := shapeAfter(s.DB, nil)
	for _, v := range []int{shape.claims, shape.sources, shape.docs, shape.cliques, s.ingests, s.sinceSweep, s.iter, s.lastCheck} {
		b = wire.AppendInt(b, uint64(v))
	}
	b = s.rng.AppendImage(b)
	b = wire.AppendF64(b, s.zScore)

	prompted := make([]int, 0, len(s.prompted))
	for c := range s.prompted {
		prompted = append(prompted, c)
	}
	sort.Ints(prompted)
	b = wire.AppendInt(b, uint64(len(prompted)))
	for _, c := range prompted {
		b = wire.AppendBool(wire.AppendInt(b, uint64(c)), s.prompted[c])
	}

	b = wire.AppendInt(b, uint64(len(s.history)))
	for _, v := range s.history {
		b = wire.AppendInt(wire.AppendInt(b, uint64(v.Claim)), uint64(v.Iter))
		b = wire.AppendBool(wire.AppendBool(b, v.Verdict), v.Repaired)
	}
	b = wire.AppendBools(b, s.grounding)
	b = wire.AppendBools(b, s.prevGnd)

	// rngAtRank is read only while a computed ranking is cached (Ingest
	// rewinds to it); without one it is left over from a round long
	// consumed, or never set, and stays out of the image.
	b = wire.AppendBool(wire.AppendBool(b, s.pendingDegraded), s.pendingOK)
	if s.pendingOK {
		b = s.rngAtRank.AppendImage(b)
		b = wire.AppendInt(b, uint64(len(s.pending)))
		for _, c := range s.pending {
			b = wire.AppendInt(b, uint64(c))
		}
	}

	b = wire.AppendBool(b, s.gains != nil)
	if s.gains != nil {
		b = s.gains.AppendImage(b)
	}
	b = s.State.AppendImage(b)
	b = s.Engine.AppendImage(b)

	payload := b[imageHeaderLen:]
	binary.LittleEndian.PutUint64(b[40:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(b[48:], uint64(crc32.Checksum(payload, castagnoli)))
	return b
}

// sessionImage is a fully decoded and bounds-checked state image, not
// yet installed anywhere.
type sessionImage struct {
	n      int    // transcript length the image is the state after
	digest uint64 // of those n elicitations
	shape  corpusShape

	sinceSweep, iter, lastCheck int
	rng, rngAtRank              stats.RNG
	zScore                      float64
	prompted                    map[int]bool
	history                     []Validation
	grounding, prevGnd          factdb.Grounding
	pending                     []int
	pendingOK, pendingDegraded  bool
	gains                       *guidance.GainCache
	state                       *factdb.State
	engine                      em.EngineImage
}

// decodeImage verifies snap.Image against the database the session is
// being restored over, the options (with defaults; config is their
// fingerprint over db) and the transcript, and decodes it. It touches
// nothing: on any mismatch it returns nil and the reason, and the
// caller replays. db is the base corpus, before any recorded ingest.
func decodeImage(db *factdb.DB, opts Options, config uint64, snap Snapshot) (*sessionImage, string) {
	b := snap.Image
	switch {
	case len(b) == 0:
		return nil, ReplayNoImage
	case len(b) < imageHeaderLen:
		return nil, ReplayTruncated
	case string(b[:4]) != imageMagic:
		return nil, ReplayMagic
	case binary.LittleEndian.Uint32(b[4:]) != imageVersion:
		return nil, ReplayVersion
	case binary.LittleEndian.Uint64(b[8:]) != traceFingerprint:
		return nil, ReplayTrace
	case binary.LittleEndian.Uint64(b[56:]) != arithmetic():
		return nil, ReplayArithmetic
	case !statelessStrategy(opts.Strategy) || binary.LittleEndian.Uint64(b[16:]) != config:
		return nil, ReplayConfig
	}
	n := binary.LittleEndian.Uint64(b[24:])
	if n > uint64(len(snap.Elicitations)) {
		return nil, ReplayLength
	}
	img := &sessionImage{n: int(n)}
	prefix := snap.Elicitations[:img.n]
	for _, e := range prefix {
		img.digest = digestElicitation(img.digest, e)
	}
	if binary.LittleEndian.Uint64(b[32:]) != img.digest {
		return nil, ReplayTranscript
	}
	payload := b[imageHeaderLen:]
	if binary.LittleEndian.Uint64(b[40:]) != uint64(len(payload)) {
		return nil, ReplayTruncated
	}
	if binary.LittleEndian.Uint64(b[48:]) != uint64(crc32.Checksum(payload, castagnoli)) {
		return nil, ReplayChecksum
	}

	// Every size below comes from the corpus (the base shape plus the
	// prefix's deltas) or the options, never from the payload.
	r := wire.NewReader(payload)
	img.shape = shapeAfter(db, prefix)
	var got corpusShape
	for _, f := range []*int{&got.claims, &got.sources, &got.docs, &got.cliques, &got.ingests} {
		*f = r.Int(math.MaxInt)
	}
	if r.Err() != nil || got != img.shape || img.shape.claims <= 0 {
		return nil, ReplayPayload
	}
	claims := img.shape.claims
	img.sinceSweep = r.Int(opts.FullSweepEvery)
	img.iter = r.Int(img.n)
	img.lastCheck = r.Int(claims)
	img.rng.ReadImage(r)
	img.zScore = r.F64()

	img.prompted = make(map[int]bool)
	for i, last := r.Int(claims), -1; i > 0 && r.Err() == nil; i-- {
		c := r.Int(claims - 1)
		if c <= last {
			r.Fail(wire.ErrValue) // ascending, hence distinct
		}
		img.prompted[c], last = r.Bool(), c
	}
	// Every history entry answers one elicitation of the prefix.
	if k := r.Int(img.n); k > 0 { // none stays nil, as in a session just opened
		img.history = make([]Validation, k)
	}
	for i := range img.history {
		img.history[i] = Validation{Claim: r.Int(claims - 1), Iter: r.Int(img.n), Verdict: r.Bool(), Repaired: r.Bool()}
	}
	img.grounding = factdb.NewGrounding(claims)
	img.prevGnd = factdb.NewGrounding(claims)
	r.Bools(img.grounding)
	r.Bools(img.prevGnd)

	img.pendingDegraded, img.pendingOK = r.Bool(), r.Bool()
	if img.pendingOK {
		img.rngAtRank.ReadImage(r)
		img.pending = make([]int, r.Int(claims))
		for i := range img.pending {
			img.pending[i] = r.Int(claims - 1)
		}
	}

	if r.Bool() != opts.cachesGains() {
		r.Fail(wire.ErrValue)
	} else if opts.cachesGains() {
		img.gains = guidance.ReadGainCacheImage(r, opts.Seed, claims)
	}
	img.state = factdb.ReadStateImage(r, claims)
	dim := 2 + db.DocFeatureDim() + db.SourceFeatureDim()
	img.engine = em.ReadEngineImage(r, claims, dim, opts.EM)
	if r.Err() != nil || r.Len() != 0 {
		return nil, ReplayPayload
	}
	return img, ""
}

// install grows db through the ingest records of the image's transcript
// prefix — structure only, no inference — and builds the session the
// image describes over it; of each applied delta the session keeps the
// span Extend reports, not the payload (logEntry). An Extend failure is
// returned as the error replay would have hit at the same record;
// nothing else can fail: the image was decoded against exactly the
// shape db now has.
func (img *sessionImage) install(db *factdb.DB, opts Options, config uint64, prefix []Elicitation) (*Session, error) {
	elog := make([]logEntry, len(prefix))
	for i, e := range prefix {
		var ext factdb.ExtendResult
		if e.Ingest != nil {
			var err error
			if ext, err = db.Extend(*e.Ingest); err != nil {
				return nil, fmt.Errorf("core: replay of ingest record %d: %w", i, err)
			}
		}
		elog[i] = logEntryOf(e, ext.Span)
	}
	got := shapeAfter(db, nil)
	got.ingests = img.shape.ingests
	if got != img.shape {
		panic("core: state image decoded for another corpus shape than its ingests produce")
	}
	s := newSession(db, opts, config)
	s.State = img.state
	s.gains = img.gains
	s.Engine.InstallImage(img.engine)
	*s.rng, s.rngAtRank = img.rng, img.rngAtRank
	s.sinceSweep, s.ingests, s.iter, s.lastCheck = img.sinceSweep, img.shape.ingests, img.iter, img.lastCheck
	s.zScore = img.zScore
	s.prompted, s.history = img.prompted, img.history
	s.grounding, s.prevGnd = img.grounding, img.prevGnd
	s.pending, s.pendingOK, s.pendingDegraded = img.pending, img.pendingOK, img.pendingDegraded
	s.elog = elog
	s.digest = img.digest
	return s, nil
}

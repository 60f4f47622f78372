package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

func quickOptions(t *testing.T, trace string, names ...string) options {
	t.Helper()
	dir := t.TempDir()
	return options{
		seed: 5, seconds: 20, quick: true, trace: trace, workloads: names,
		dataRoot: filepath.Join(dir, "data"), spanDir: filepath.Join(dir, "out"), setups: 2,
	}
}

// quickRun is one -quick run of every workload and both passes, shared
// by the tests that only read it.
var quickRun = sync.OnceValues(func() (Report, error) {
	dir, err := os.MkdirTemp("", "bench-quick-")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)
	return run(options{
		seed: 5, seconds: 20, quick: true, trace: "both",
		dataRoot: filepath.Join(dir, "data"), spanDir: filepath.Join(dir, "out"), setups: 2,
	}, &bytes.Buffer{})
})

// TestQuickSmoke checks the ledger's shape: every declared metric is
// reported, with its unit, on exactly the workloads it is declared for,
// nothing failed, and every output check ran and passed.
func TestQuickSmoke(t *testing.T) {
	report, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Correct {
		t.Error("report is not correct")
	}
	if len(report.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(report.Workloads), len(workloads))
	}
	for _, res := range report.Workloads {
		for _, d := range declared() {
			m, ok := res.metric(d.name)
			switch {
			case ok != (d.on == nil || slices.Contains(d.on, res.Name)):
				t.Errorf("%s: metric %s reported = %v, declared on %v", res.Name, d.name, ok, d.on)
			case ok && m.Unit != d.unit:
				t.Errorf("%s: metric %s has unit %q, declared %q", res.Name, d.name, m.Unit, d.unit)
			case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
				t.Errorf("%s: metric %s = %v", res.Name, d.name, m.Value)
			}
		}
		for _, m := range res.metrics() {
			if !slices.ContainsFunc(declared(), func(d decl) bool { return d.name == m.Name }) {
				t.Errorf("%s: metric %s is reported but not declared", res.Name, m.Name)
			}
		}
		if m, _ := res.metric("failed_share"); m.Value != 0 || res.Ops["failed"] != 0 {
			t.Errorf("%s: failed_share %v, %d failed operations", res.Name, m.Value, res.Ops["failed"])
		}
		var ran []string
		for _, c := range res.Checks {
			ran = append(ran, c.Name)
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", res.Name, c.Name, c.Detail)
			}
		}
		want := []string{
			"no failed operation (untraced)", "no failed operation (traced)",
			"session #0 equals library path", "digest equal in both passes",
			"self times close on client.answer",
		}
		if !reflect.DeepEqual(ran, want) {
			t.Errorf("%s: checks run %q, want %q", res.Name, ran, want)
		}
	}
}

// TestQuickRunsRepeat runs the same seed twice: digests, operation
// counts and every count-type metric must repeat exactly. (The second
// run makes only the traced pass, which is where the counts come from.)
func TestQuickRunsRepeat(t *testing.T) {
	first, err := quickRun()
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(quickOptions(t, "1"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		if a.Digest != b.Digest {
			t.Errorf("%s: digest %s then %s", a.Name, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Ops, b.Ops) {
			t.Errorf("%s: ops %v then %v", a.Name, a.Ops, b.Ops)
		}
		for _, d := range declared() {
			ma, inA := a.metric(d.name)
			mb, inB := b.metric(d.name)
			if inA && inB && d.exact && ma.Value != mb.Value {
				t.Errorf("%s: count-type metric %s read %v then %v", a.Name, d.name, ma.Value, mb.Value)
			}
		}
	}
	var out bytes.Buffer
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for i, r := range []Report{first, second} {
		if err := r.write(files[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := compareFiles(&out, files[:1], files[1:]); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), mismatch) {
		t.Errorf("-compare of two runs of the same seed reports a mismatch:\n%s", out.String())
	}
}

// TestDriverLine checks the BENCHMARK.json contract's invocation: one
// workload, one pass, and a last line holding exactly the listed
// metrics.
func TestDriverLine(t *testing.T) {
	for trace, decls := range map[string][]decl{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		if _, err := run(quickOptions(t, trace, "streaming-ingest"), &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: last line %q", trace, lines[len(lines)-1])
		}
		var want, got []string
		for _, d := range decls {
			if d.driver() {
				want = append(want, d.name)
			}
		}
		for name := range line.Metrics {
			got = append(got, name)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: last line lists %q, want %q", trace, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric declarations
// in step: the same workloads, and exactly the metrics reported on
// every workload, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &contract); err != nil {
		t.Fatal(err)
	}
	for i, w := range contract.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q: %q", i, w.Name, w.Why)
		}
	}
	if len(contract.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(contract.Workloads), len(workloads))
	}
	for _, side := range []struct {
		got   []metric
		decls []decl
	}{{contract.EndToEnd, endToEnd}, {contract.PerLayer, perLayer}} {
		var want []metric
		for _, d := range side.decls {
			if d.driver() {
				want = append(want, metric{d.name, d.unit, map[bool]string{false: "lower", true: "higher"}[d.higher], d.bound})
			}
		}
		if !reflect.DeepEqual(side.got, want) {
			t.Errorf("BENCHMARK.json lists\n%+v\nthe declarations give\n%+v", side.got, want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.99: 10, 0.9: 9, 0.91: 10, 0.1: 1, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4) in Python.
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}

// TestSpanSelfTimes builds one routed answer by hand: a 100 µs client
// span over a 80 µs router span over a 50 µs server span holding two
// persist calls, one of which overlaps the other.
func TestSpanSelfTimes(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{Trace: "t1", Name: "client.answer", Session: "s", Start: us(0), End: us(100)},
		{Trace: "t1", Name: "router.handle", Session: "s", Start: us(10), End: us(90)},
		{Trace: "t1", Name: "server.handle", Session: "s", Start: us(20), End: us(70)},
		{Name: "persist.append", Session: "s", Start: us(30), End: us(40)},
		{Name: "persist.checkpoint", Session: "s", Start: us(35), End: us(50)},
		// Another session's call inside the same interval, and a call of
		// this session outside any request: neither may attach.
		{Name: "persist.append", Session: "other", Start: us(30), End: us(40)},
		{Name: "persist.checkpoint", Session: "s", Start: us(200), End: us(210)},
		// A create: its server span learns the session from the client span.
		{Trace: "t2", Name: "client.open", Session: "n", Start: us(300), End: us(400)},
		{Trace: "t2", Name: "server.handle", Start: us(310), End: us(390)},
		{Name: "persist.checkpoint", Session: "n", Start: us(320), End: us(330)},
	}
	for i := range spans {
		spans[i].ID, spans[i].Parent = i, -1
	}
	link(spans)
	var parents []int
	for _, s := range spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{-1, 0, 1, 2, 2, -1, -1, -1, 7, 8}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("parents %v, want %v", parents, want)
	}
	self := selfSeconds(spans)
	for i, want := range []float64{20e-6, 30e-6, 30e-6, 10e-6, 15e-6} {
		if math.Abs(self[i]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	l := answerSelfTimes(spans)
	want := answerLayers{client: 100e-6, clientSelf: 20e-6, routerSelf: 30e-6, server: 50e-6, persist: 25e-6}
	if math.Abs(l.client-want.client)+math.Abs(l.clientSelf-want.clientSelf)+math.Abs(l.routerSelf-want.routerSelf)+
		math.Abs(l.server-want.server)+math.Abs(l.persist-want.persist) > 1e-12 {
		t.Errorf("answer layers %+v, want %+v", l, want)
	}
}

// failingStore fails every call with its own error.
type failingStore struct{ persist.Store }

var (
	errAppend     = errors.New("append")
	errCheckpoint = errors.New("checkpoint")
	errLoad       = errors.New("load")
	errDelete     = errors.New("delete")
	errList       = errors.New("list")
)

func (failingStore) Checkpoint(string, persist.Record) error    { return errCheckpoint }
func (failingStore) Append(string, int, core.Elicitation) error { return errAppend }
func (failingStore) Load(string) (persist.Record, bool, error) {
	return persist.Record{}, false, errLoad
}
func (failingStore) Delete(string) error     { return errDelete }
func (failingStore) List() ([]string, error) { return nil, errList }
func (failingStore) Close() error            { return nil }

func recordOf(es ...core.Elicitation) persist.Record {
	return persist.Record{Config: []byte(`{}`), Elicitations: es}
}

func mustLoad(t *testing.T, s persist.Store, id string) persist.Record {
	t.Helper()
	r, _, err := s.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTracedStoreIsTransparent: wrapped and bare stores end in the same
// state, errors come through unchanged, and every call left a span.
// (That a whole workload answers the same claims with and without the
// wrapper is the digest check every run makes.)
func TestTracedStoreIsTransparent(t *testing.T) {
	rec := newRecorder()
	bare, wrapped := persist.NewMemStore(), &tracedStore{inner: persist.NewMemStore(), rec: rec}
	for _, s := range []persist.Store{bare, wrapped} {
		if err := s.Checkpoint("a", recordOf(core.Elicitation{Claim: 1, OK: true})); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("a", 1, core.Elicitation{Claim: 2, Verdict: true, OK: true}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("a", 5, core.Elicitation{}); err == nil {
			t.Error("append past a gap succeeded")
		}
		if err := s.Append("nobody", 0, core.Elicitation{}); !errors.Is(err, persist.ErrUnknownSession) {
			t.Errorf("append to an unknown session: %v", err)
		}
	}
	if a, b := mustLoad(t, bare, "a"), mustLoad(t, wrapped, "a"); !reflect.DeepEqual(a, b) {
		t.Errorf("bare store holds %+v, wrapped %+v", a, b)
	}
	var names []string
	for _, s := range rec.snapshot() {
		names = append(names, s.Name)
	}
	if want := []string{"persist.checkpoint", "persist.append", "persist.append", "persist.append", "persist.load"}; !reflect.DeepEqual(names, want) {
		t.Errorf("spans %q, want %q", names, want)
	}
	if s := rec.snapshot()[1]; s.Bytes != len(`{"seq":1,"claim":2,"verdict":true,"ok":true}`)+1 || s.Session != "a" {
		t.Errorf("append span %+v", s)
	}

	failing := &tracedStore{inner: failingStore{}, rec: rec}
	_, _, loadErr := failing.Load("a")
	_, listErr := failing.List()
	for _, c := range []struct{ got, want error }{
		{failing.Checkpoint("a", recordOf()), errCheckpoint}, {failing.Append("a", 0, core.Elicitation{}), errAppend},
		{loadErr, errLoad}, {failing.Delete("a"), errDelete}, {listErr, errList},
	} {
		if !errors.Is(c.got, c.want) {
			t.Errorf("wrapped store returned %v, the store %v", c.got, c.want)
		}
	}
	if failing.Location() != "" {
		t.Error("a store without a location gained one")
	}
	fs, err := persist.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := (&tracedStore{inner: fs, rec: rec}).Location(); got != fs.Location() {
		t.Errorf("location %q, the store's %q", got, fs.Location())
	}
}

func TestJudge(t *testing.T) {
	latency := decl{name: "answer_p50_ms", unit: "ms", bound: 0.07}
	rate := decl{name: "answers_per_s", unit: "1/s", higher: true, bound: 0.07}
	count := decl{name: "persist.appends", unit: "count", exact: true}
	layer := decl{name: "gibbs.sweep_us", unit: "us"}
	failed := decl{name: "failed_share", unit: "fraction", abs: true}
	for _, c := range []struct {
		name string
		d    decl
		a, b []float64
		want string
	}{
		{"within the bound", latency, []float64{10, 10.1, 9.9, 10}, []float64{10.3, 10.2, 10.4, 10.3}, same},
		{"past the bound", latency, []float64{10, 10.1, 9.9, 10}, []float64{11, 11.1, 10.9, 11}, worse},
		{"clearly faster", latency, []float64{10, 10.1, 9.9, 10}, []float64{9, 9.1, 8.9, 9}, better},
		{"higher is better", rate, []float64{100, 101, 99, 100}, []float64{90, 91, 89, 90}, worse},
		{"spread wider than the bound", latency, []float64{10, 12, 8, 11}, []float64{10.5, 12.5, 8.5, 11.5}, unresolved},
		{"wide spread, every run slower", latency, []float64{10, 12, 8, 11}, []float64{20, 22, 18, 21}, worse},
		{"wide spread, every run faster", latency, []float64{10, 12, 8, 11}, []float64{5, 7, 3, 6}, better},
		{"single runs", latency, []float64{10}, []float64{10.5}, same},
		{"counts equal", count, []float64{640, 640}, []float64{640}, same},
		{"counts differ", count, []float64{640, 640}, []float64{641}, mismatch},
		{"per-layer metrics only inform", layer, []float64{8}, []float64{80}, info},
		{"any new failure", failed, []float64{0, 0}, []float64{0, 0.001, 0.001}, worse},
	} {
		if got := judge(c.d, c.a, c.b, true); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(count, []float64{1}, []float64{2}, false); got != info {
		t.Errorf("counts of different seeds: %s, want %s", got, info)
	}
}

package sim

import (
	"math"
	"testing"

	"factcheck/internal/stats"
)

func TestOracle(t *testing.T) {
	o := &Oracle{Truth: []bool{true, false}}
	if v, ok := o.Validate(0); !ok || !v {
		t.Fatal("oracle wrong on claim 0")
	}
	if v, ok := o.Validate(1); !ok || v {
		t.Fatal("oracle wrong on claim 1")
	}
}

func TestErroneousErrorRate(t *testing.T) {
	truth := make([]bool, 4000)
	for i := range truth {
		truth[i] = i%3 == 0
	}
	e := NewErroneous(truth, 0.25, 7)
	wrong := 0
	for c := range truth {
		v, ok := e.Validate(c)
		if !ok {
			t.Fatal("erroneous user must always answer")
		}
		if v != truth[c] {
			wrong++
		}
	}
	rate := float64(wrong) / float64(len(truth))
	if math.Abs(rate-0.25) > 0.03 {
		t.Fatalf("mistake rate = %v, want ~0.25", rate)
	}
	if len(e.Mistakes()) != wrong {
		t.Fatalf("Mistakes() = %d, want %d", len(e.Mistakes()), wrong)
	}
	if e.Answered() != len(truth) {
		t.Fatalf("Answered = %d", e.Answered())
	}
}

func TestErroneousRepairRerolls(t *testing.T) {
	truth := []bool{true}
	e := NewErroneous(truth, 0.5, 3)
	// Re-asking repeatedly must eventually produce both answers.
	seenTrue, seenFalse := false, false
	for i := 0; i < 100; i++ {
		v, _ := e.Validate(0)
		if v {
			seenTrue = true
		} else {
			seenFalse = true
		}
	}
	if !seenTrue || !seenFalse {
		t.Fatal("repair re-roll never changed the verdict")
	}
	// Mistakes reflects only the latest verdict.
	if len(e.Mistakes()) > 1 {
		t.Fatal("Mistakes must track one entry per claim")
	}
}

func TestZeroErrorIsOracle(t *testing.T) {
	truth := []bool{true, false, true}
	e := NewErroneous(truth, 0, 5)
	for c, want := range truth {
		if v, _ := e.Validate(c); v != want {
			t.Fatal("p=0 user must match truth")
		}
	}
	if len(e.Mistakes()) != 0 {
		t.Fatal("p=0 user recorded mistakes")
	}
}

func TestSkipperSkipsOncePerClaim(t *testing.T) {
	truth := make([]bool, 1000)
	o := &Oracle{Truth: truth}
	s := NewSkipper(o, 1.0, 9) // always skip first ask
	for c := 0; c < 1000; c++ {
		if _, ok := s.Validate(c); ok {
			t.Fatalf("claim %d not skipped on first ask", c)
		}
		if _, ok := s.Validate(c); !ok {
			t.Fatalf("claim %d skipped twice", c)
		}
	}
	if s.Skips() != 1000 {
		t.Fatalf("Skips = %d", s.Skips())
	}
}

func TestSkipperRate(t *testing.T) {
	truth := make([]bool, 5000)
	s := NewSkipper(&Oracle{Truth: truth}, 0.3, 11)
	skips := 0
	for c := 0; c < 5000; c++ {
		if _, ok := s.Validate(c); !ok {
			skips++
		}
	}
	rate := float64(skips) / 5000
	if math.Abs(rate-0.3) > 0.03 {
		t.Fatalf("skip rate = %v, want ~0.3", rate)
	}
}

func TestWorkerReliability(t *testing.T) {
	w := NewWorker(0.9, 100, 0.3, 13)
	correct := 0
	var totalSec float64
	const n = 5000
	for i := 0; i < n; i++ {
		v, sec := w.Answer(i%2 == 0)
		if sec <= 0 {
			t.Fatal("non-positive response time")
		}
		totalSec += sec
		if v == (i%2 == 0) {
			correct++
		}
	}
	acc := float64(correct) / n
	if math.Abs(acc-0.9) > 0.02 {
		t.Fatalf("worker accuracy = %v, want ~0.9", acc)
	}
	mean := totalSec / n
	if mean < 80 || mean > 140 {
		t.Fatalf("mean seconds = %v, want near the 100s median", mean)
	}
}

func TestConsensusRecoversTruth(t *testing.T) {
	r := stats.NewRNG(17)
	truth := make([]bool, 200)
	for i := range truth {
		truth[i] = r.Bernoulli(0.5)
	}
	// Five workers, one of them terrible.
	rels := []float64{0.95, 0.9, 0.85, 0.8, 0.55}
	answers := make([][]int8, len(truth))
	for c := range truth {
		answers[c] = make([]int8, len(rels))
		for w, rel := range rels {
			v := truth[c]
			if !r.Bernoulli(rel) {
				v = !v
			}
			if v {
				answers[c][w] = 1
			} else {
				answers[c][w] = 0
			}
		}
	}
	labels, reliab := Consensus(answers, 30)
	correct := 0
	for c := range labels {
		if labels[c] == truth[c] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(truth)); acc < 0.93 {
		t.Fatalf("consensus accuracy = %v", acc)
	}
	// The weakest worker should receive the lowest estimated reliability.
	worst := 0
	for w := range reliab {
		if reliab[w] < reliab[worst] {
			worst = w
		}
	}
	if worst != 4 {
		t.Fatalf("estimated reliabilities %v; worker 4 should be worst", reliab)
	}
}

func TestConsensusBeatsAverageWorker(t *testing.T) {
	r := stats.NewRNG(19)
	truth := make([]bool, 300)
	for i := range truth {
		truth[i] = r.Bernoulli(0.5)
	}
	rels := []float64{0.75, 0.7, 0.8, 0.72, 0.78}
	answers := make([][]int8, len(truth))
	perWorkerCorrect := make([]int, len(rels))
	for c := range truth {
		answers[c] = make([]int8, len(rels))
		for w, rel := range rels {
			v := truth[c]
			if !r.Bernoulli(rel) {
				v = !v
			}
			if v == truth[c] {
				perWorkerCorrect[w]++
			}
			if v {
				answers[c][w] = 1
			} else {
				answers[c][w] = 0
			}
		}
	}
	labels, _ := Consensus(answers, 30)
	correct := 0
	for c := range labels {
		if labels[c] == truth[c] {
			correct++
		}
	}
	consensusAcc := float64(correct) / float64(len(truth))
	var avg float64
	for _, pc := range perWorkerCorrect {
		avg += float64(pc) / float64(len(truth))
	}
	avg /= float64(len(rels))
	if consensusAcc <= avg {
		t.Fatalf("consensus %v did not beat average worker %v", consensusAcc, avg)
	}
}

func TestConsensusHandlesMissingAnswers(t *testing.T) {
	answers := [][]int8{
		{1, -1, 1},
		{-1, 0, 0},
		{1, 1, -1},
	}
	labels, reliab := Consensus(answers, 10)
	if len(labels) != 3 || len(reliab) != 3 {
		t.Fatal("shape mismatch")
	}
	if !labels[0] || labels[1] || !labels[2] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestConsensusEmpty(t *testing.T) {
	labels, reliab := Consensus(nil, 5)
	if labels != nil || reliab != nil {
		t.Fatal("empty consensus should return nils")
	}
}

func TestExpertVsCrowdTradeoff(t *testing.T) {
	// The §8.9/Table 3 mechanism: experts are more accurate but slower.
	truth := make([]bool, 50)
	r := stats.NewRNG(23)
	for i := range truth {
		truth[i] = r.Bernoulli(0.5)
	}
	experts := NewExpertPopulation(3, 0.97, 500, 29)
	crowd := NewCrowdPopulation(7, 0.8, 300, 31)
	eRes := experts.RunTasks(truth)
	cRes := crowd.RunTasks(truth)
	if eRes.Accuracy < cRes.Accuracy {
		t.Fatalf("experts (%v) should be at least as accurate as crowd (%v)",
			eRes.Accuracy, cRes.Accuracy)
	}
	if eRes.MeanSeconds <= cRes.MeanSeconds {
		t.Fatalf("experts (%vs) should be slower than crowd (%vs)",
			eRes.MeanSeconds, cRes.MeanSeconds)
	}
	if eRes.Accuracy < 0.9 {
		t.Fatalf("expert accuracy = %v, want high", eRes.Accuracy)
	}
}

// Mistakes returns the claims whose latest verdict disagrees with truth.
func (e *Erroneous) Mistakes() []int {
	var out []int
	for c, v := range e.last {
		if v != e.Truth[c] {
			out = append(out, c)
		}
	}
	return out
}

// Answered returns the number of distinct claims answered.
func (e *Erroneous) Answered() int { return len(e.last) }

// Skips returns the number of skip events issued.
func (s *Skipper) Skips() int { return len(s.skipped) }

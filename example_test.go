package factcheck_test

import (
	"fmt"
	"net/http/httptest"

	"factcheck"
)

// ExampleNewSession runs the guided validation loop to a precision goal.
func ExampleNewSession() {
	corpus := factcheck.GenerateCorpus(factcheck.Wikipedia.Scaled(0.2), 42)
	session := factcheck.NewSession(corpus.DB, factcheck.Options{
		Seed:          7,
		CandidatePool: 8,
		Workers:       1,
		Goal: func(s *factcheck.Session) bool {
			return s.Precision(corpus.Truth) >= 0.9
		},
	})
	session.Run(&factcheck.Oracle{Truth: corpus.Truth})
	fmt.Printf("reached >= 0.9 precision: %v\n", session.Precision(corpus.Truth) >= 0.9)
	fmt.Printf("validated all claims: %v\n", session.Effort() >= 1)
	// Output:
	// reached >= 0.9 precision: true
	// validated all claims: false
}

// ExampleGenerateCorpus shows corpus generation determinism.
func ExampleGenerateCorpus() {
	a := factcheck.GenerateCorpus(factcheck.Snopes.Scaled(0.003), 1)
	b := factcheck.GenerateCorpus(factcheck.Snopes.Scaled(0.003), 1)
	fmt.Println(a.DB.Stats() == b.DB.Stats())
	// Output: true
}

// ExampleDB builds a fact database by hand: two sources, three documents,
// two claims — one of them disputed.
func ExampleDB() {
	db := &factcheck.DB{NumClaims: 2}
	blog := db.AddSource([]float64{0.9}) // source features, e.g. centrality
	forum := db.AddSource([]float64{0.1})
	db.AddDocument(blog, []float64{0.5, 1}, factcheck.ClaimRef{Claim: 0, Stance: factcheck.Support})
	db.AddDocument(blog, []float64{0.2, 0}, factcheck.ClaimRef{Claim: 1, Stance: factcheck.Refute})
	db.AddDocument(forum, []float64{0.8, 1}, factcheck.ClaimRef{Claim: 1, Stance: factcheck.Support})
	if err := db.Finalize(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(db.Stats())
	// Output: 2 sources, 3 documents, 2 claims, 3 cliques, 1 components
}

// ExampleGrounding_Precision scores a trusted fact set against a known
// assignment.
func ExampleGrounding_Precision() {
	g := factcheck.Grounding{true, false, true, true}
	truth := []bool{true, false, false, true}
	fmt.Println(g.Precision(truth))
	// Output: 0.75
}

// ExampleServiceClient drives a guided validation session over the HTTP
// API: open a session on a corpus profile, ask for the most beneficial
// claim, answer (here with the simulated ground-truth user), repeat. The
// served loop is bit-identical to the in-process Session path.
func ExampleServiceClient() {
	manager := factcheck.NewServiceManager(factcheck.ServiceConfig{Workers: 1})
	defer manager.Shutdown()
	srv := httptest.NewServer(factcheck.NewServiceServer(manager).Handler())
	defer srv.Close()

	client := factcheck.NewServiceClient(srv.URL)
	info, err := client.Open(factcheck.ServiceOpenRequest{
		Profile: "wiki", Scale: 0.2, Seed: 42, CandidatePool: 8,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	st, _ := client.State(info.ID, false)
	for st.Precision < 0.9 {
		next, err := client.Next(info.ID, 1)
		if err != nil || next.Done {
			break
		}
		st, err = client.Answer(info.ID, factcheck.ServiceAnswer{
			Claim: next.Candidates[0].Claim, Oracle: true,
		})
		if err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Printf("reached >= 0.9 precision over HTTP: %v\n", st.Precision >= 0.9)
	fmt.Printf("validated all claims: %v\n", st.Effort >= 1)
	// Output:
	// reached >= 0.9 precision over HTTP: true
	// validated all claims: false
}

// ExampleRestoreSession persists a session as a snapshot (its replayable
// transcript) and rebuilds it bit-identically — the hook behind server
// restarts and session migration.
func ExampleRestoreSession() {
	corpus := factcheck.GenerateCorpus(factcheck.Wikipedia.Scaled(0.2), 42)
	opts := factcheck.Options{Seed: 7, CandidatePool: 8, Workers: 1}
	a, _ := factcheck.OpenSession(corpus.DB, opts)
	oracle := &factcheck.Oracle{Truth: corpus.Truth}
	for i := 0; i < 5; i++ {
		a.Step(oracle)
	}

	snap := a.Snapshot() // JSON-friendly: persist anywhere
	b, err := factcheck.RestoreSession(corpus.DB, opts, snap)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("restored %d validations\n", len(b.History()))

	// Both sessions continue identically.
	a.Step(oracle)
	b.Step(oracle)
	last := func(s *factcheck.Session) factcheck.Validation {
		h := s.History()
		return h[len(h)-1]
	}
	fmt.Printf("continue identically: %v\n", last(a) == last(b))
	// Output:
	// restored 5 validations
	// continue identically: true
}

// ExampleNewTracker demonstrates an early-termination decision (§6.1).
func ExampleNewTracker() {
	tr := factcheck.NewTracker(5)
	// Three iterations with almost no uncertainty reduction.
	for _, h := range []float64{10, 9.95, 9.93, 9.92} {
		tr.Observe(factcheck.Observation{Entropy: h, Claims: 100})
	}
	stop := tr.ShouldStop(factcheck.Thresholds{URRBelow: 0.05, Consecutive: 3})
	fmt.Println(stop)
	// Output: true
}

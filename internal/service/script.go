package service

import (
	"errors"

	"factcheck/internal/factdb"
	"factcheck/internal/synth"
)

// Script drives one served session the way every tool and most serving
// tests do: the §8.1 oracle user answers the claim the session asks
// about, and §7 corpus deltas arrive in between. It is written once, on
// top of Client, so the same script runs against a manager in process
// (NewLocalClient), a server over a socket and a fleet behind a router.
// A zero Script with Client set is ready to Open; one given the ID of a
// session opened elsewhere can give Answers.
type Script struct {
	Client *Client
	ID     string
	// shape is the session's profile at its corpus's current totals,
	// from Open's SessionInfo and then each IngestResponse: what the
	// next delta is generated at.
	shape synth.Profile
}

// Open opens the script's session — under id, or under an id the server
// draws when id is empty — and starts tracking its corpus shape.
func (s *Script) Open(id string, req OpenRequest) (SessionInfo, error) {
	prof, err := synth.ByName(req.Profile)
	if err != nil {
		return SessionInfo{}, err
	}
	info, err := s.Client.OpenAs(id, req) // an empty id is a plain Open
	if err != nil {
		return SessionInfo{}, err
	}
	s.ID = info.ID
	s.shape = prof.At(factdb.Stats{Claims: info.Claims, Sources: info.Sources, Documents: info.Documents})
	return info, nil
}

// Answers gives up to n oracle answers, each to the claim the session
// asks about and each echoing the sequence it was asked at (so a
// retried submission is idempotent), and returns the state after the
// last. It stops early, without an error, once the session is done.
func (s *Script) Answers(n int) (StateResponse, error) {
	var st StateResponse
	for i := 0; i < n && !st.Done; i++ {
		next, err := s.Client.Next(s.ID, 1)
		if err != nil || next.Done {
			return st, err
		}
		st, err = s.Client.Answer(s.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &next.Seq})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// Ingest posts the delta synth.GenerateDelta draws for (frac, seed) at
// the session's current shape and returns it with the server's
// acknowledgement. The seed is the caller's, so a fixture's deltas
// reproduce byte for byte.
func (s *Script) Ingest(frac float64, seed int64) (factdb.Delta, IngestResponse, error) {
	if s.shape.Name == "" {
		return factdb.Delta{}, IngestResponse{}, errors.New("service: Script.Ingest on a session the script did not open")
	}
	d := synth.GenerateDelta(s.shape, frac, seed)
	resp, err := s.Client.Ingest(s.ID, IngestRequest{Delta: d})
	if err != nil {
		return d, resp, err
	}
	s.shape = s.shape.At(factdb.Stats{Claims: resp.Claims, Sources: resp.Sources, Documents: resp.Documents})
	return d, resp, nil
}

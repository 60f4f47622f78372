package service

import (
	"errors"
	"net/http"

	"factcheck/internal/edge"
)

// Stable error codes carried by the error envelope. Clients dispatch
// on these, never on message text. Every non-2xx response is
//
//	{"error": {"code": "...", "message": "...", "retryAfter": n, "traceId": "..."}}
//
// with the retryAfter hint, when a row of Refusals has one, mirrored in
// the Retry-After header.
const (
	CodeBadRequest     = "bad_request"
	CodeNotFound       = "session_not_found"
	CodeMigrated       = "session_migrated"
	CodeWrongClaim     = "wrong_claim"
	CodeStaleSeq       = "stale_seq"
	CodeDone           = "session_done"
	CodeExists         = "session_exists"
	CodeShedding       = "shedding"
	CodeMailboxFull    = "mailbox_full"
	CodeSessionLimit   = "session_limit"
	CodeShuttingDown   = "shutting_down"
	CodePersistFailure = "persist_failure"

	// Router-originated codes (the shard router speaks the same
	// envelope): a session mid-migration, an empty backend ring, and an
	// unreachable backend.
	CodeMigrating  = "session_migrating"
	CodeNoBackends = "no_backends"
	CodeBadGateway = "bad_gateway"
)

// Refusal is one row of the /v1 failure contract: the status, envelope
// code and Retry-After hint a refusal goes out with, and the sentinel
// error it stands for on both sides of the wire.
type Refusal struct {
	Code   string
	Status int
	// RetryAfter is the hint in seconds (0 = none). A row with a hint is
	// transient — overload, backpressure, drain, migration — and the
	// client replays a retry-safe request through it.
	RetryAfter int
	// Err is the service sentinel (nil for a refusal no manager call
	// returns).
	Err error
}

// Refusals is the /v1 failure contract, written once. The server
// answers an error with the first row whose sentinel it matches
// (bad_request when none does), the router refuses by code, and the
// client decodes a code back into its row's sentinel and replays
// exactly the rows that carry a hint. A new failure is a new row.
var Refusals = []Refusal{
	{CodeNotFound, http.StatusNotFound, 0, ErrNotFound},
	{CodeMigrated, http.StatusGone, 0, ErrMigrated},
	{CodeWrongClaim, http.StatusConflict, 0, ErrWrongClaim},
	{CodeStaleSeq, http.StatusConflict, 0, ErrSeq},
	{CodeDone, http.StatusConflict, 0, ErrDone},
	{CodeExists, http.StatusConflict, 0, ErrExists},
	{CodeShedding, http.StatusTooManyRequests, 1, ErrOverloaded},
	{CodeMailboxFull, http.StatusTooManyRequests, 1, ErrMailboxFull},
	{CodeSessionLimit, http.StatusServiceUnavailable, 1, ErrFull},
	{CodeShuttingDown, http.StatusServiceUnavailable, 1, ErrShutdown},
	{CodePersistFailure, http.StatusInternalServerError, 0, ErrPersist},
	{CodeBadRequest, http.StatusBadRequest, 0, nil},
	{CodeMigrating, http.StatusServiceUnavailable, 1, nil},
	{CodeNoBackends, http.StatusServiceUnavailable, 1, nil},
	{CodeBadGateway, http.StatusBadGateway, 0, nil},
}

// refusalFor returns code's row; ok is false for a code not in the
// table.
func refusalFor(code string) (r Refusal, ok bool) {
	for _, r := range Refusals {
		if r.Code == code {
			return r, true
		}
	}
	return Refusal{}, false
}

// Refuse writes the envelope of code's row with message. code must be
// a row of Refusals.
func Refuse(w http.ResponseWriter, code, message string) {
	r, ok := refusalFor(code)
	if !ok {
		panic("service: no refusal row for code " + code)
	}
	edge.WriteError(w, r.Status, r.Code, message, r.RetryAfter)
}

// writeServiceError refuses err with the first row whose sentinel it
// matches, and with bad_request when none does.
func writeServiceError(w http.ResponseWriter, err error) {
	code := CodeBadRequest
	for _, r := range Refusals {
		if r.Err != nil && errors.Is(err, r.Err) {
			code = r.Code
			break
		}
	}
	Refuse(w, code, err.Error())
}

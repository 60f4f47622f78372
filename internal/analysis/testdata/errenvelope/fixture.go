// Fixture for the errenvelope analyzer, type-checked as
// factcheck/internal/service: every refusal goes through the JSON
// error-envelope funnel.
package service

import (
	"encoding/json"
	"net/http"
)

func bareHTTPError(w http.ResponseWriter) {
	http.Error(w, "nope", http.StatusBadRequest) // want "bypasses the JSON error envelope"
}

func bareWriteHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotFound) // want "bare WriteHeader\\(404\\)"
}

func bareWriteHeaderLiteral(w http.ResponseWriter) {
	w.WriteHeader(503) // want "bare WriteHeader\\(503\\)"
}

func successStatusOK(w http.ResponseWriter) {
	w.WriteHeader(http.StatusOK)
	w.WriteHeader(204)
}

// proxyPassthroughOK copies a backend's status verbatim; the value is
// not a constant, so the backend's own envelope is trusted.
func proxyPassthroughOK(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}

// WriteJSON is the envelope serializer: the funnel itself may write
// any status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError builds the envelope; a constant refusal status inside the
// funnel is the point.
func WriteError(w http.ResponseWriter, code, message string) {
	w.WriteHeader(http.StatusInternalServerError)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{"code": code, "message": message}})
}

func allowedBare(w http.ResponseWriter) {
	//lint:allow errenvelope raw TCP health probe endpoint predates the envelope contract
	w.WriteHeader(http.StatusServiceUnavailable)
}

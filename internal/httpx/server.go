package httpx

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
)

// MaxBodyBytes bounds request bodies on every JSON endpoint (a /join
// batch of ~10k names fits) and the coordinator's reads of worker
// responses.
const MaxBodyBytes = 4 << 20

// DecodeJSON parses a POSTed JSON body into v. Any other method is 405,
// a body over MaxBodyBytes 413, malformed JSON or an unknown field 400.
// It reports whether v was filled; on false the error response has been
// written.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON answers 200 with v as the JSON body.
func WriteJSON(w http.ResponseWriter, v any) { WriteJSONStatus(w, http.StatusOK, v) }

// WriteJSONStatus answers code with v as the JSON body.
func WriteJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

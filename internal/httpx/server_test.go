package httpx

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecodeJSON: the request decoder every JSON endpoint shares maps
// each malformed-request class to its status and fills v otherwise.
func TestDecodeJSON(t *testing.T) {
	type req struct {
		Name string `json:"name"`
	}
	for _, tc := range []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"GET on a POST route", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed json", http.MethodPost, `{"name":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"nmae":"x"}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, `{"name":"` + strings.Repeat("a", MaxBodyBytes+16) + `"}`, http.StatusRequestEntityTooLarge},
		{"valid", http.MethodPost, `{"name":"barak obama"}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got req
			rec := httptest.NewRecorder()
			ok := DecodeJSON(rec, httptest.NewRequest(tc.method, "/add", strings.NewReader(tc.body)), &got)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if ok != (tc.want == http.StatusOK) {
				t.Fatalf("DecodeJSON = %v with status %d", ok, rec.Code)
			}
			if ok && got.Name != "barak obama" {
				t.Fatalf("decoded %+v", got)
			}
		})
	}
}

// TestWriteJSONStatus: the encoder sets the status and the JSON content
// type, and terminates the body with a newline like json.Encoder.
func TestWriteJSONStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSONStatus(rec, http.StatusConflict, map[string]int{"epoch": 2})
	if rec.Code != http.StatusConflict || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != "{\"epoch\":2}\n" {
		t.Fatalf("got %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}

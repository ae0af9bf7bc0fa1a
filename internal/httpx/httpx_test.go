package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
)

func TestPostJSONRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			t.Errorf("method = %s, want POST", r.Method)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type = %q", ct)
		}
		var in struct {
			N int `json:"n"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			t.Errorf("decode: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"n":%d}`, in.N+1)
	}))
	defer ts.Close()

	var out struct {
		N int `json:"n"`
	}
	err := PostJSON(context.Background(), ts.Client(), ts.URL, map[string]int{"n": 41}, &out, time.Second, 1<<16)
	if err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	if out.N != 42 {
		t.Fatalf("out.N = %d, want 42", out.N)
	}
}

func TestStatusError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusConflict)
	}))
	defer ts.Close()

	err := GetJSON(context.Background(), ts.Client(), ts.URL, nil, time.Second, 1<<16)
	if err == nil {
		t.Fatal("want error on 409")
	}
	se, ok := Status(err)
	if !ok || se.Code != http.StatusConflict || se.Body != "nope" {
		t.Fatalf("Status = %+v, %v", se, ok)
	}
	if _, ok := Status(fmt.Errorf("wrapped: %w", err)); !ok {
		t.Fatal("Status misses a wrapped StatusError")
	}
	if _, ok := Status(errors.New("plain")); ok {
		t.Fatal("Status matched an error that carries no status")
	}
}

func TestGetJSONTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)

	start := time.Now()
	err := GetJSON(context.Background(), ts.Client(), ts.URL, nil, 30*time.Millisecond, 1<<16)
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	var calls atomic.Int64
	var observed []int
	err := Retry(context.Background(), backoff.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond},
		func() error {
			if calls.Add(1) < 3 {
				return errors.New("transient")
			}
			return nil
		},
		func(attempt int, _ time.Duration, err error) {
			observed = append(observed, attempt)
			if err == nil {
				t.Error("onErr called with nil error")
			}
		})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
	if len(observed) != 2 || observed[0] != 1 || observed[1] != 2 {
		t.Fatalf("observed attempts = %v, want [1 2]", observed)
	}
}

func TestRetryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := Retry(ctx, backoff.Policy{Base: 5 * time.Millisecond, Cap: 5 * time.Millisecond},
		func() error { calls.Add(1); return errors.New("always") }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Retry = %v, want context.Canceled", err)
	}
	if calls.Load() == 0 {
		t.Fatal("fn never ran")
	}
}

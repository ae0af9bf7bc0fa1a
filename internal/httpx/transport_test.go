package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer is a test server that counts the TCP connections its
// clients open, and reports each one it closes on closed.
type countingServer struct {
	*httptest.Server
	opened atomic.Int64
	closed chan net.Conn
}

func newCountingServer(t *testing.T, h http.Handler, idleTimeout time.Duration) *countingServer {
	t.Helper()
	s := &countingServer{Server: httptest.NewUnstartedServer(h), closed: make(chan net.Conn, 64)}
	s.Config.IdleTimeout = idleTimeout
	s.Config.ConnState = func(c net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			select {
			case s.closed <- c:
			default:
			}
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// echo answers {"n": n+1} to a POSTed {"n": n}.
func echo(w http.ResponseWriter, r *http.Request) {
	var in struct {
		N int `json:"n"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, `{"n":%d}`, in.N+1)
}

func postN(ctx context.Context, c *http.Client, url string, n int) error {
	var out struct {
		N int `json:"n"`
	}
	if err := PostJSON(ctx, c, url, map[string]int{"n": n}, &out, 2*time.Second, 1<<16); err != nil {
		return err
	}
	if out.N != n+1 {
		return fmt.Errorf("answer %d to %d, want %d", out.N, n, n+1)
	}
	return nil
}

func idleConns(c *http.Client) int {
	t := c.Transport.(*transport)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, cs := range t.idle {
		n += len(cs)
	}
	return n
}

func TestTransportReusesOneConnection(t *testing.T) {
	s := newCountingServer(t, http.HandlerFunc(echo), 0)
	c := NewClient(time.Second)
	for i := 0; i < 100; i++ {
		if err := postN(context.Background(), c, s.URL, i); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := s.opened.Load(); got != 1 {
		t.Fatalf("100 sequential calls opened %d connections, want 1", got)
	}
}

// TestTransportRedialsDroppedIdleConnection: a peer that closes idle
// keep-alive connections leaves a dead one in the pool; the next call
// still succeeds, on a fresh connection.
func TestTransportRedialsDroppedIdleConnection(t *testing.T) {
	s := newCountingServer(t, http.HandlerFunc(echo), 20*time.Millisecond)
	c := NewClient(time.Second)
	if err := postN(context.Background(), c, s.URL, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.closed: // the server dropped the idle connection
	case <-time.After(5 * time.Second):
		t.Fatal("server never closed the idle connection")
	}
	if idleConns(c) != 1 {
		t.Fatalf("pool holds %d connections, want the dropped one", idleConns(c))
	}
	if err := postN(context.Background(), c, s.URL, 2); err != nil {
		t.Fatalf("call after the peer dropped the idle connection: %v", err)
	}
	if got := s.opened.Load(); got != 2 {
		t.Fatalf("opened %d connections, want 2", got)
	}
}

// TestTransportStalledPeerTimesOut: a handler that never answers fails
// the call within its timeout with the context's error, and the
// connection it stalled on is closed, not pooled.
func TestTransportStalledPeerTimesOut(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", echo)
	mux.HandleFunc("/stall", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	s := newCountingServer(t, mux, 0)
	defer close(release)
	c := NewClient(time.Second)
	if err := postN(context.Background(), c, s.URL+"/ok", 1); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err := GetJSON(context.Background(), c, s.URL+"/stall", nil, 50*time.Millisecond, 1<<16)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call: %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stalled call took %v against a 50ms timeout", elapsed)
	}
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled connection was never closed")
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("pool holds %d connections after the stall, want 0", n)
	}
	if err := postN(context.Background(), c, s.URL+"/ok", 2); err != nil {
		t.Fatal(err)
	}
	if got := s.opened.Load(); got != 2 {
		t.Fatalf("opened %d connections, want 2: the stalled one must not be reused", got)
	}
}

func TestTransportCancelMidRead(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"n":`))
		w.(http.Flusher).Flush()
		close(started)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), 0)
	defer close(release)
	c := NewClient(time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	var out struct{ N int }
	err := PostJSON(ctx, c, s.URL, map[string]int{"n": 1}, &out, 0, 1<<16)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled call took %v", elapsed)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("pool holds %d connections after the cancel, want 0", n)
	}
}

// TestTransportConcurrentCalls: many goroutines share one client; every
// call answers right and the idle pool never grows past its bound.
func TestTransportConcurrentCalls(t *testing.T) {
	const goroutines, calls = 8, 50
	s := newCountingServer(t, http.HandlerFunc(echo), 0)
	c := NewClient(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := postN(context.Background(), c, s.URL, g*calls+i); err != nil {
					t.Error(err)
					return
				}
				if n := idleConns(c); n > maxIdlePerPeer {
					t.Errorf("idle pool holds %d connections, bound %d", n, maxIdlePerPeer)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleConns(c); n < 1 || n > maxIdlePerPeer {
		t.Fatalf("idle pool holds %d connections after the calls, want 1..%d", n, maxIdlePerPeer)
	}
}

// TestBodyOverBound: a 2xx answer longer than the read bound is an
// error naming the bound, not a JSON syntax error, whether its length is
// declared or chunked; its connection is dropped, not pooled.
func TestBodyOverBound(t *testing.T) {
	const bound = 1 << 10
	big := `{"s":"` + strings.Repeat("x", bound) + `"}`
	mux := http.NewServeMux()
	mux.HandleFunc("/sized", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(big)))
		fmt.Fprint(w, big)
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big[:10])
		w.(http.Flusher).Flush() // no Content-Length: the body is chunked
		fmt.Fprint(w, big[10:])
	})
	mux.HandleFunc("/fits", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big[:bound-2]+`"}`)
	})
	s := newCountingServer(t, mux, 0)
	c := NewClient(time.Second)
	var out struct{ S string }
	if err := GetJSON(context.Background(), c, s.URL+"/fits", &out, time.Second, bound); err != nil {
		t.Fatalf("a body of exactly the bound: %v", err)
	}
	for _, path := range []string{"/sized", "/chunked"} {
		err := GetJSON(context.Background(), c, s.URL+path, &out, time.Second, bound)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bound)) {
			t.Fatalf("%s: %v, want an error naming the %d-byte bound", path, err, bound)
		}
		if n := idleConns(c); n != 0 {
			t.Fatalf("%s: pool holds %d connections, want the over-bound one dropped", path, n)
		}
	}
}

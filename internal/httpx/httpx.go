// Package httpx is the repo's one hand-rolled HTTP/JSON vocabulary. The
// client half: timeout-bounded JSON round trips with limited response
// reads, non-2xx-to-error decoding, and a retry-with-backoff driver. The
// replication shipper (internal/replica) and the cluster coordinator
// (internal/distrib) both speak JSON over HTTP with exactly these needs —
// timeouts on every leg, bounded reads so a confused peer cannot balloon
// memory, and typed status errors the caller can branch on. The server
// half (server.go): the one request decoder and response encoder every
// JSON endpoint in the repo uses, single node and coordinator alike.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/backoff"
)

// StatusError is a non-2xx response: the request URL, the status code,
// and the (read-limited, trimmed) response body for diagnostics. On the
// server side it is the verdict a handler answers with; Reply, when set,
// is then the JSON body sent in place of Body.
type StatusError struct {
	URL   string
	Code  int
	Body  string
	Reply any
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s answered %d: %s", e.URL, e.Code, e.Body)
}

// Status returns err's StatusError, if any.
func Status(err error) (*StatusError, bool) {
	var se *StatusError
	ok := errors.As(err, &se)
	return se, ok
}

// NewClient builds an http.Client with a bounded dial timeout and a
// small per-host idle pool — the shape every internal client (WAL
// shipping, standby registration, coordinator scatter) wants. Request
// deadlines are per call (PostJSON/GetJSON), not on the client.
func NewClient(connectTimeout time.Duration) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: connectTimeout}).DialContext,
		MaxIdleConnsPerHost: 4,
	}}
}

// PostJSON marshals in, POSTs it to url under timeout (0 = ctx only),
// reads at most maxBody response bytes, and unmarshals a 2xx body into
// out (nil out discards it). A non-2xx response returns a *StatusError;
// a torn response body returns the read error — the caller decides
// whether the request is safe to retry.
func PostJSON(ctx context.Context, client *http.Client, url string, in, out any, timeout time.Duration, maxBody int64) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return roundTrip(ctx, client, http.MethodPost, url, "application/json", body, out, timeout, maxBody)
}

// PostBytes is PostJSON with a raw, already-encoded request body.
func PostBytes(ctx context.Context, client *http.Client, url string, body []byte, out any, timeout time.Duration, maxBody int64) error {
	return roundTrip(ctx, client, http.MethodPost, url, "application/octet-stream", body, out, timeout, maxBody)
}

// GetJSON GETs url under timeout and unmarshals a 2xx body into out,
// with the same error contract as PostJSON.
func GetJSON(ctx context.Context, client *http.Client, url string, out any, timeout time.Duration, maxBody int64) error {
	return roundTrip(ctx, client, http.MethodGet, url, "", nil, out, timeout, maxBody)
}

func roundTrip(ctx context.Context, client *http.Client, method, url, contentType string, body []byte, out any, timeout time.Duration, maxBody int64) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return fmt.Errorf("reading response from %s: %w", url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &StatusError{URL: url, Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("bad response from %s: %w", url, err)
	}
	return nil
}

// Retry runs fn until it returns nil or ctx ends, sleeping an
// exponential-backoff delay between attempts. onErr, when non-nil,
// observes every failure with the attempt number (1-based) and the
// delay chosen before the next try — the hook replication uses for
// per-follower retry accounting. Returns nil on success; on
// cancellation, ctx's error (the last fn error is reported to onErr,
// not returned, matching "the caller gave up, not the peer").
func Retry(ctx context.Context, pol backoff.Policy, fn func() error, onErr func(attempt int, delay time.Duration, err error)) error {
	bo := backoff.State{P: pol}
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		d := bo.Next()
		if onErr != nil {
			onErr(bo.Attempt(), d, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
}

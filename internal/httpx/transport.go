package httpx

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// maxIdlePerPeer bounds the idle keep-alive connections a client keeps
// to one peer.
const maxIdlePerPeer = 4

// transport is the http.RoundTripper under every client NewClient
// builds: plain HTTP/1.1 over a bounded pool of idle keep-alive
// connections per peer, with the whole exchange on the caller's
// goroutine. RoundTrip writes the request and reads the response header
// itself, and the caller's reads of the body come straight off the
// connection, so one internal RPC wakes no other goroutine; the
// request context's deadline and cancellation become connection
// deadlines. A connection goes back to the pool once its body has been
// read to the end; one closed before that, or touched by a cancellation,
// is closed instead.
type transport struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*conn // peer address -> idle connections, most recent last
}

// conn is one keep-alive connection. It counts the bytes read off the
// wire since its last request went out, so a failure can tell whether
// the peer answered at all.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	nread int64
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	c.nread += int64(n)
	return n, err
}

// aLongTimeAgo is a deadline in the past: setting it fails any blocked
// read or write on the connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// RoundTrip implements http.RoundTripper. A reused connection that fails
// before any response byte arrives is one the peer closed while it sat
// idle; the request then goes once more on a fresh connection.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("httpx: unsupported scheme %q", req.URL.Scheme)
	}
	ctx := req.Context()
	addr := peerAddr(req)
	for fresh := false; ; fresh = true {
		if err := ctx.Err(); err != nil {
			closeBody(req)
			return nil, err
		}
		var c *conn
		if !fresh {
			c = t.get(addr)
		}
		reused := c != nil
		if !reused {
			nc, err := t.dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				closeBody(req)
				return nil, ctxErr(ctx, err)
			}
			c = &conn{nc: nc}
			c.br = bufio.NewReader(c)
			c.bw = bufio.NewWriter(nc)
		}
		resp, err := t.exchange(ctx, addr, c, req)
		if err == nil {
			return resp, nil
		}
		c.nc.Close()
		closeBody(req)
		if !reused || c.nread > 0 || isTimeout(err) || ctx.Err() != nil || (req.Body != nil && req.Body != http.NoBody && req.GetBody == nil) {
			return nil, ctxErr(ctx, err)
		}
		// The peer closed this connection while it sat idle, and most
		// likely its siblings too.
		t.closeIdle(addr)
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			r := *req
			r.Body = body
			req = &r
		}
	}
}

// exchange writes req on c and reads the response header. The response
// body reads on from c; see body.
func (t *transport) exchange(ctx context.Context, addr string, c *conn, req *http.Request) (*http.Response, error) {
	dl, _ := ctx.Deadline() // zero: no deadline
	if err := c.nc.SetDeadline(dl); err != nil {
		return nil, err
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.nc.SetDeadline(aLongTimeAgo) })
	}
	c.nread = 0
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	if err != nil {
		stop()
		return nil, err
	}
	b := &body{t: t, addr: addr, c: c, rc: resp.Body, ctx: ctx, stop: stop, keep: !resp.Close && !req.Close}
	if resp.Body == http.NoBody {
		b.finish()
	} else {
		resp.Body = b
	}
	return resp, nil
}

// body is a response body read straight off its connection. Read and
// Close must be called from one goroutine at a time, as net/http's own
// callers do.
type body struct {
	t    *transport
	addr string
	c    *conn // nil once the connection is released or closed
	rc   io.ReadCloser
	ctx  context.Context
	stop func() bool
	keep bool  // the exchange allows the connection's reuse
	err  error // what Read returns once c is nil
}

func (b *body) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	switch {
	case err == io.EOF:
		b.finish()
	case err != nil:
		err = ctxErr(b.ctx, err)
		b.discard(err)
	}
	return n, err
}

// Close closes the connection unless the body was read to the end: an
// unread remainder would be the next exchange's garbage.
func (b *body) Close() error {
	b.discard(http.ErrBodyReadAfterClose)
	return nil
}

// finish releases a fully read connection to the pool, unless the
// exchange forbade reuse or a cancellation may have touched its
// deadline.
func (b *body) finish() {
	if b.c == nil {
		return
	}
	c := b.c
	b.c, b.err = nil, io.EOF
	if b.stop() && b.keep {
		b.t.put(b.addr, c)
		return
	}
	c.nc.Close()
}

// discard closes the connection; later Reads return err.
func (b *body) discard(err error) {
	if b.c == nil {
		return
	}
	b.stop()
	b.c.nc.Close()
	b.c, b.err = nil, err
}

func (t *transport) get(addr string) *conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs := t.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	c := cs[len(cs)-1]
	cs[len(cs)-1] = nil
	t.idle[addr] = cs[:len(cs)-1]
	return c
}

func (t *transport) put(addr string, c *conn) {
	t.mu.Lock()
	if cs := t.idle[addr]; len(cs) < maxIdlePerPeer {
		if t.idle == nil {
			t.idle = make(map[string][]*conn)
		}
		t.idle[addr] = append(cs, c)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	c.nc.Close()
}

// closeIdle closes the idle connections to addr.
func (t *transport) closeIdle(addr string) {
	t.mu.Lock()
	cs := t.idle[addr]
	delete(t.idle, addr)
	t.mu.Unlock()
	for _, c := range cs {
		c.nc.Close()
	}
}

// peerAddr is the host:port req goes to.
func peerAddr(req *http.Request) string {
	port := req.URL.Port()
	if port == "" {
		port = "80"
	}
	return net.JoinHostPort(req.URL.Hostname(), port)
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ctxErr reports a connection failure that ctx's end caused as ctx's
// error, as net/http does; the connection deadline can fire a moment
// before the context notices its own.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if dl, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return err
}

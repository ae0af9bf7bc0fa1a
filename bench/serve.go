package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tsjoin "repro"
	"repro/bench/gen"
)

// serveThreshold is the NSLD threshold every served workload runs at: the
// paper's default.
const serveThreshold = 0.1

// numClients is the number of closed-loop client connections.
const numClients = 2

// ---- Processes ------------------------------------------------------------

// proc is one tsjserve process the harness started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches tsjserve on addr with args and waits until ready
// answers 200. Its output goes to <out>/<name>.log.
func startServer(c *config, name, addr, ready string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(c.outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.tsjserve, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(engineProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case err := <-p.done:
			p.done <- err
			p.stop()
			return nil, fmt.Errorf("%s exited before it was ready: %v (see %s)", name, err, logf.Name())
		default:
		}
		if resp, err := client.Get(p.url + ready); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not answer %s within 30s (see %s)", name, ready, logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the process to shut down gracefully, waits for it, and kills
// it if it has not gone after ten seconds.
func (p *proc) stop() error {
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() != 0 {
			return fmt.Errorf("%s: %v (see %s)", p.name, err, p.log.Name())
		}
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s ignored SIGTERM for 10s and was killed", p.name)
	}
}

// ---- HTTP -----------------------------------------------------------------

func newClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// do sends one request and reads the whole response.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call is do for a request that must succeed, decoding the answer.
func call(client *http.Client, method, url string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, b, err := do(client, method, url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

type wireMatch struct {
	ID   int     `json:"id"`
	SLD  int     `json:"sld"`
	NSLD float64 `json:"nsld"`
}

type wireAnswer struct {
	ID      int         `json:"id"`
	Matches []wireMatch `json:"matches"`
}

// nodeStats is the part of a tsjserve node's /stats the harness reads.
type nodeStats struct {
	Adds          int64   `json:"adds"`
	Queries       int64   `json:"queries"`
	Verified      int64   `json:"verified"`
	CandGenWallMs float64 `json:"cand_gen_wall_ms"`
	VerifyWallMs  float64 `json:"verify_wall_ms"`
	Latency       map[string]struct {
		P50Ms float64 `json:"p50_ms"`
	} `json:"latency"`
}

func nameBodies(names []string) [][]byte {
	out := make([][]byte, len(names))
	for i, s := range names {
		out[i], _ = json.Marshal(struct { // a string always marshals
			Name string `json:"name"`
		}{s})
	}
	return out
}

// preloadJoin loads names through POST /join in chunks and checks that
// ids come back in arrival order.
func preloadJoin(client *http.Client, url string, names []string) error {
	const chunk = 5000
	for lo := 0; lo < len(names); lo += chunk {
		hi := lo + chunk
		if hi > len(names) {
			hi = len(names)
		}
		var out struct {
			First int `json:"first"`
		}
		in := struct {
			Names []string `json:"names"`
		}{names[lo:hi]}
		if err := call(client, http.MethodPost, url+"/join", in, &out); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if out.First != lo {
			return fmt.Errorf("preload: chunk at %d was given first id %d", lo, out.First)
		}
	}
	return nil
}

// ---- The served instance --------------------------------------------------

// serveInst is a running tsjserve topology with a stream of ops to send.
type serveInst struct {
	c       *config
	procs   []*proc // in stop order
	engines []*proc // the nodes whose /stats hold the matcher counters
	dirs    []string
	target  string // base URL the clients send ops to
	path    string // "/add" or "/query"
	bodies  [][]byte
	// cycle: the op stream repeats from the start when it runs out (probes
	// are never indexed, so they may); adds stop instead.
	cycle   bool
	check   func(i int, ans *wireAnswer) error
	clients []*http.Client
	sampler *http.Client // the trace run's own connection for floor and lag samples
	next    atomic.Int64
	acked   atomic.Int64 // ops answered 200, over the instance's life
	preload int

	// Trace-run bookkeeping.
	statsBefore, statsAfter []nodeStats
	lag                     []float64 // standby lag in records, sampled over the traced leg
	floor                   []float64 // ms, GET /healthz sampled over the traced leg
	innerFloor              []float64 // ms, the same against a worker behind the coordinator
	noStandbyP50            float64   // serve_write: /add p50 before the standby was attached
	names                   []string
	extraLayers             func(s *serveInst, v map[string]float64, traced *window) error
}

// runOps sends ops from numClients closed-loop clients until limit ops
// have been claimed or the deadline passes, whichever is first.
func (s *serveInst) runOps(limit int64, deadline time.Time, w *window, tr *tracer) int {
	return s.runOpsTo(s.target, s.check, limit, deadline, w, tr)
}

// runOpsTo is runOps against another node or with another check.
func (s *serveInst) runOpsTo(target string, check func(int, *wireAnswer) error, limit int64, deadline time.Time, w *window, tr *tracer) int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var claimed atomic.Int64
	done := 0
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var lat []float64
			var notes []string
			failed := 0
			for claimed.Add(1) <= limit && time.Now().Before(deadline) {
				i := int(s.next.Add(1) - 1)
				if i >= len(s.bodies) {
					if !s.cycle {
						break
					}
					i %= len(s.bodies)
				}
				t0 := time.Now()
				status, body, err := do(client, http.MethodPost, target+s.path, s.bodies[i])
				t1 := time.Now()
				lat = append(lat, ms(t1.Sub(t0)))
				tr.add("client:"+s.path, 0, int64(i), t0, t1, false)
				var ans wireAnswer
				switch {
				case err != nil:
				case status != http.StatusOK:
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				default:
					s.acked.Add(1)
					if err = json.Unmarshal(body, &ans); err == nil {
						err = check(i, &ans)
					}
				}
				if err != nil {
					failed++
					if len(notes) < 3 {
						notes = append(notes, fmt.Sprintf("op %d: %v", i, err))
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			w.lat = append(w.lat, lat...)
			w.failed += failed
			if len(w.notes) < 5 {
				w.notes = append(w.notes, notes...)
			}
			done += len(lat)
		}(s.clients[g])
	}
	wg.Wait()
	return done
}

func (s *serveInst) warmup(ops int) error {
	var w window
	s.runOps(int64(ops), time.Now().Add(time.Minute), &w, nil)
	if w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed: %v", w.failed, len(w.lat), w.notes)
	}
	return nil
}

func (s *serveInst) round(d time.Duration, w *window, tr *tracer) int {
	if tr == nil {
		return s.runOps(1<<62, time.Now().Add(d), w, nil)
	}
	if s.statsBefore == nil {
		s.statsBefore = s.engineStats()
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		// While the ops run, on a connection of its own: the HTTP floor (a
		// request that does nothing, under the same contention the ops
		// see) every 20 ms, and the standby's lag every 100 ms.
		defer close(sampled)
		for tick := 0; ; tick++ {
			s.sampleFloor(tr)
			if s.path == "/add" && tick%5 == 0 {
				s.sampleLag(tr)
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	n := s.runOps(1<<62, time.Now().Add(d), w, tr)
	close(stop)
	<-sampled
	s.statsAfter = s.engineStats()
	return n
}

// sampleFloor times GET /healthz on the node the clients talk to and,
// behind a coordinator, on a worker.
func (s *serveInst) sampleFloor(tr *tracer) {
	t0 := time.Now()
	if _, _, err := do(s.sampler, http.MethodGet, s.target+"/healthz", nil); err == nil {
		t1 := time.Now()
		tr.add("sample:/healthz", 0, -1, t0, t1, false)
		s.floor = append(s.floor, ms(t1.Sub(t0)))
	}
	if inner := s.engines[0].url; inner != s.target {
		t0 = time.Now()
		if _, _, err := do(s.sampler, http.MethodGet, inner+"/healthz", nil); err == nil {
			t1 := time.Now()
			tr.add("sample:inner/healthz", 0, -1, t0, t1, false)
			s.innerFloor = append(s.innerFloor, ms(t1.Sub(t0)))
		}
	}
}

// sampleLag reads how many records the standby trails the primary by.
func (s *serveInst) sampleLag(tr *tracer) {
	var st struct {
		Primary struct {
			Followers []struct {
				LagRecords float64 `json:"lag_records"`
			} `json:"followers"`
		} `json:"primary"`
	}
	t0 := time.Now()
	if err := call(s.sampler, http.MethodGet, s.target+"/replication", nil, &st); err == nil && len(st.Primary.Followers) > 0 {
		tr.add("sample:/replication", 0, -1, t0, time.Now(), false)
		s.lag = append(s.lag, st.Primary.Followers[0].LagRecords)
	}
}

func (s *serveInst) engineStats() []nodeStats {
	out := make([]nodeStats, len(s.engines))
	for i, p := range s.engines {
		// A failed read leaves zeros, which the layer metrics then show.
		call(s.clients[0], http.MethodGet, p.url+"/stats", nil, &out[i])
	}
	return out
}

func (s *serveInst) cpu() time.Duration {
	var sum time.Duration
	for _, p := range s.procs {
		if d, err := procCPU(p.cmd.Process.Pid); err == nil {
			sum += d
		}
	}
	return sum
}

func (s *serveInst) peakRSSMB() float64 {
	var sum float64
	for _, p := range s.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0
		}
		sum += mb
	}
	return sum
}

// stringsPerS is ops over wall per round, at the canary's speed, median
// over the quiet rounds: every op carries one string.
func (s *serveInst) stringsPerS(w *window) float64 {
	return w.overQuiet(func(r roundStat) float64 { return float64(r.strings) / r.wall.Seconds() * r.canary })
}

// stopProcs stops every process, last started first, and waits for each.
func (s *serveInst) stopProcs() error {
	var first error
	for _, p := range s.procs {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	s.procs = nil
	for _, c := range append([]*http.Client{s.sampler}, s.clients...) {
		c.CloseIdleConnections()
	}
	return first
}

func (s *serveInst) close() error {
	err := s.stopProcs()
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
	return err
}

func (s *serveInst) dataDir(role string) (string, error) {
	d := filepath.Join(s.c.outDir, "data_"+role)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	s.dirs = append(s.dirs, d)
	return d, nil
}

func (s *serveInst) start(name, ready string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := startServer(s.c, name, addr, ready, args...)
	if err != nil {
		return nil, err
	}
	s.procs = append([]*proc{p}, s.procs...) // stop in reverse start order
	return p, nil
}

func newServeInst(c *config) *serveInst {
	s := &serveInst{c: c, sampler: newClient()}
	for i := 0; i < numClients; i++ {
		s.clients = append(s.clients, newClient())
	}
	return s
}

var thresholdArg = strconv.FormatFloat(serveThreshold, 'g', -1, 64)

// ---- serve_write ----------------------------------------------------------

const (
	writePreload = 30000
	// writeStream bounds the add stream: more than two clients can send in
	// the longest window the contract allows.
	writeStreamPerSecond = 6000
	writeWarmups         = 2500
	// standbySyncEvery: the standby applies a shipped batch record by
	// record, each through its own WAL append. Fsyncing every one of them
	// makes it slower than the primary it follows; it then falls off the
	// primary's 1024-record ship ring and is re-bootstrapped from scratch,
	// over and over, for as long as the clients keep the primary busy. One
	// fsync per shipped batch (256 records) lets it keep up, so that the
	// workload measures shipping and not a resync storm.
	standbySyncEvery = "256"
)

// setupServeWrite starts one durable primary (fsync on every add, two
// index shards), preloads it through /join, snapshots it and restarts it
// so that the warm load is part of setup, attaches one warm standby, and
// warms the add path up.
func setupServeWrite(c *config) (_ instance, err error) {
	s := newServeInst(c)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	preload := gen.Names(c.seed, c.scaled(writePreload, 200))
	stream := c.scaled(int(float64(writeStreamPerSecond)*(c.seconds+5)), 500)
	adds, variantOf := gen.AddStream(c.seed, preload, stream)
	s.names, s.preload = preload, len(preload)
	s.bodies, s.path = nameBodies(adds), "/add"
	s.check = func(i int, ans *wireAnswer) error {
		if ans.ID < len(preload) {
			return fmt.Errorf("add was given id %d, inside the preload", ans.ID)
		}
		src := variantOf[i]
		if src < 0 || tsjoin.NSLD(adds[i], preload[src]) > serveThreshold-1e-9 {
			return nil
		}
		for _, m := range ans.Matches {
			if m.ID == src {
				return nil
			}
		}
		return fmt.Errorf("%q is a variant of %q (id %d) within the threshold, which its matches %v lack", adds[i], preload[src], src, ans.Matches)
	}

	dir, err := s.dataDir("primary")
	if err != nil {
		return nil, err
	}
	primaryArgs := []string{"-data", dir, "-sync-every", "1", "-shards", "2", "-threshold", thresholdArg}
	primary, err := s.start("primary", "/readyz", primaryArgs...)
	if err != nil {
		return nil, err
	}
	c.tick()
	if err := preloadJoin(s.clients[0], primary.url, preload); err != nil {
		return nil, err
	}
	c.tick()
	if err := call(s.clients[0], http.MethodPost, primary.url+"/snapshot", struct{}{}, nil); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := s.stopProcs(); err != nil { // restart: the warm load
		return nil, err
	}
	if primary, err = s.start("primary", "/readyz", primaryArgs...); err != nil {
		return nil, err
	}
	s.target, s.engines = primary.url, []*proc{primary}

	if c.trace {
		// The leg the standby's cost is measured against: the same adds
		// with nobody to ship to.
		if err := s.warmup(c.scaled(writeWarmups/2, 20)); err != nil {
			return nil, err
		}
		var w window
		s.runOps(int64(c.scaled(3000, 50)), time.Now().Add(time.Minute), &w, nil)
		if w.failed > 0 {
			return nil, fmt.Errorf("no-standby leg: %d ops failed: %v", w.failed, w.notes)
		}
		s.noStandbyP50 = median(w.lat)
	}

	sdir, err := s.dataDir("standby")
	if err != nil {
		return nil, err
	}
	saddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	standby, err := startServer(c, "standby", saddr, "/readyz",
		"-data", sdir, "-sync-every", standbySyncEvery, "-shards", "2", "-threshold", thresholdArg,
		"-replica-of", primary.url, "-advertise", "http://"+saddr)
	if err != nil {
		return nil, err
	}
	s.procs = append([]*proc{standby}, s.procs...)
	// The standby answers /readyz once registered; its bootstrap then runs
	// in the background. Warm up against a streaming standby, and do not
	// start the timed window until it has caught up again.
	if err := s.awaitStandby(); err != nil {
		return nil, err
	}
	c.tick()
	if err := s.warmup(c.scaled(writeWarmups, 20)); err != nil {
		return nil, err
	}
	if err := s.awaitStandby(); err != nil {
		return nil, err
	}
	s.extraLayers = writeLayers
	return s, nil
}

// awaitStandby waits until the primary reports its follower streaming with
// nothing left to ship.
func (s *serveInst) awaitStandby() error {
	var st struct {
		Primary struct {
			Followers []struct {
				State      string `json:"state"`
				LagRecords int    `json:"lag_records"`
			} `json:"followers"`
		} `json:"primary"`
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		err := call(s.clients[0], http.MethodGet, s.target+"/replication", nil, &st)
		if f := st.Primary.Followers; err == nil && len(f) == 1 && f[0].State == "streaming" && f[0].LagRecords == 0 {
			return nil
		}
	}
	return fmt.Errorf("standby did not catch up within 30s: %+v", st.Primary.Followers)
}

// verify drains replication and checks that primary and standby both hold
// the preload plus every acknowledged add.
func (s *serveInst) verify(w *window) {
	want := s.preload
	if s.path == "/add" {
		want += int(s.acked.Load())
	}
	for _, p := range s.procs {
		if strings.HasPrefix(p.name, "worker") {
			continue // a worker holds a partition; the coordinator holds the sum
		}
		w.attempted++
		var got int
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			var st struct {
				Strings int `json:"strings"`
			}
			err := call(s.clients[0], http.MethodGet, p.url+"/stats", nil, &st)
			if got = st.Strings; err == nil && got == want {
				break
			}
			if time.Now().After(deadline) {
				w.fail("%s holds %d strings after the drain (%v), want %d", p.name, got, err, want)
				break
			}
		}
	}
}

// ---- serve_read -----------------------------------------------------------

const (
	readPreload = 6000
	readProbes  = 10000
	readWarmups = 1500
)

// setupServeRead starts two in-memory workers behind a coordinator,
// preloads through the coordinator's /join, and warms the query path up.
// The probes' expected answers are computed in-process before the first
// setup, outside setup_s, by the same engine without HTTP.
func prepareServeRead(c *config) (setupFunc, error) {
	preload, probes := readInputs(c)
	expected, err := expectedAnswers(preload, probes)
	if err != nil {
		return nil, err
	}
	return func() (instance, error) { return setupServeRead(c, expected) }, nil
}

func readInputs(c *config) (preload, probes []string) {
	preload = gen.Names(c.seed, c.scaled(readPreload, 200))
	return preload, gen.ProbeStream(c.seed, preload, c.scaled(readProbes, 200))
}

func setupServeRead(c *config, expected [][]tsjoin.Match) (_ instance, err error) {
	s := newServeInst(c)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	preload, probes := readInputs(c)
	s.names, s.preload = preload, len(preload)
	s.bodies, s.path, s.cycle = nameBodies(probes), "/query", true
	s.check = func(i int, ans *wireAnswer) error {
		want := expected[i]
		if len(ans.Matches) != len(want) {
			return fmt.Errorf("%q matched %v, want %v", probes[i], ans.Matches, want)
		}
		for k, m := range ans.Matches {
			if m.ID != want[k].ID || m.SLD != want[k].SLD {
				return fmt.Errorf("%q matched %v, want %v", probes[i], ans.Matches, want)
			}
		}
		return nil
	}
	var workerURLs []string
	for _, name := range []string{"worker0", "worker1"} {
		p, err := s.start(name, "/readyz", "-shards", "2", "-threshold", thresholdArg)
		if err != nil {
			return nil, err
		}
		workerURLs = append(workerURLs, p.url)
		s.engines = append(s.engines, p)
	}
	coord, err := s.start("coordinator", "/healthz", "-coordinator", "-workers", strings.Join(workerURLs, ","))
	if err != nil {
		return nil, err
	}
	s.target = coord.url
	c.tick()
	if err := preloadJoin(s.clients[0], coord.url, preload); err != nil {
		return nil, err
	}
	c.tick()
	if err := s.warmup(c.scaled(readWarmups, 20)); err != nil {
		return nil, err
	}
	s.extraLayers = readLayers
	return s, nil
}

// expectedAnswers computes every probe's match set against the preload
// with the in-process matcher. Ids are arrival order, as the coordinator's
// global ids are.
func expectedAnswers(preload, probes []string) ([][]tsjoin.Match, error) {
	m, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: serveThreshold}, Shards: engineProcs,
	})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	m.AddAll(preload)
	out := make([][]tsjoin.Match, len(probes))
	var wg sync.WaitGroup
	for g := 0; g < engineProcs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(probes); i += engineProcs {
				out[i] = m.Query(probes[i])
			}
		}(g)
	}
	wg.Wait()
	return out, nil
}

// ---- Trace-run layers -------------------------------------------------------

// layerSample caps the strings the in-process layer probes run on, so that
// a trace run of a served workload stays about as long as an untraced one.
const layerSample = 8000

// layers measures the served workloads' per-layer metrics: the servers'
// own counters over the traced leg, the HTTP floor, and the in-process
// probes on the preloaded names.
func (s *serveInst) layers(traced *window, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{
		"replica.ack_overhead_ms": 0, "replica.lag_records": 0, "distrib.scatter_overhead_ms": 0,
	}
	names := s.names
	if len(names) > layerSample {
		names = names[:layerSample]
	}

	// The engine's split of a client's op, from /stats deltas over the
	// traced leg (a scattered query runs on every worker).
	var served, candgen, verify, verified, handler float64
	endpoint := strings.TrimPrefix(s.path, "/")
	for i, after := range s.statsAfter {
		before := s.statsBefore[i]
		served += float64(after.Adds + after.Queries - before.Adds - before.Queries)
		candgen += after.CandGenWallMs - before.CandGenWallMs
		verify += after.VerifyWallMs - before.VerifyWallMs
		verified += float64(after.Verified - before.Verified)
		// The op waits for the slower node.
		if p50 := after.Latency[endpoint].P50Ms; p50 > handler {
			handler = p50
		}
	}
	if served == 0 {
		return nil, fmt.Errorf("the servers' /stats count no op over the traced leg")
	}
	ops := float64(len(traced.lat))
	v["stream.candgen_ms_per_op"] = candgen / ops
	v["stream.verify_ms_per_op"] = verify / ops
	v["stream.verified_per_op"] = verified / ops
	v["tsjserve.handler_p50_ms"] = handler
	v["tsjserve.op_p99_ms"] = quantile(traced.lat, 0.99)

	if len(s.floor) == 0 {
		return nil, fmt.Errorf("no /healthz sample succeeded over the traced leg")
	}
	v["tsjserve.http_floor_ms"] = median(s.floor)

	if err := s.extraLayers(s, v, traced); err != nil {
		return nil, err
	}
	// An op is the hop to the node the client talks to, behind a
	// coordinator the hop to the slower worker, and the handler there. A
	// negative remainder means the hops overlap more than this sum allows.
	attributed := v["tsjserve.http_floor_ms"] + v["tsjserve.handler_p50_ms"]
	if len(s.innerFloor) > 0 {
		attributed += median(s.innerFloor)
	}
	v["trace.unattributed_frac"] = 1 - attributed/traced.rawP50()

	// The batch pipeline on the same names, for the tsj and mapreduce rows.
	var times []joinTimes
	var last *tsjoin.Stats
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, st, err := tsjoin.SelfJoinStats(names, tsjoin.Options{Threshold: serveThreshold})
		if err != nil {
			return nil, err
		}
		tr.add("tsjoin.SelfJoin", 0, -1, t0, time.Now(), false)
		times, last = append(times, extractJoinTimes(st)), st
	}
	joinStatsMetrics(v, times, last, len(names))
	if err := probeLayers(v, s.c, names, serveThreshold, tr); err != nil {
		return nil, err
	}
	// The matcher without HTTP, WAL or replication. Its counter-derived
	// rows are the servers' own, set above.
	inproc := make(map[string]float64)
	if err := probeStream(inproc, names, serveThreshold, tr); err != nil {
		return nil, err
	}
	v["stream.add_ms"], v["stream.query_ms"] = inproc["stream.add_ms"], inproc["stream.query_ms"]
	return v, nil
}

// writeLayers: what the standby costs an add, and how far it trails.
func writeLayers(s *serveInst, v map[string]float64, traced *window) error {
	v["replica.ack_overhead_ms"] = traced.rawP50() - s.noStandbyP50
	if len(s.lag) > 0 {
		v["replica.lag_records"] = median(s.lag)
	}
	return nil
}

// readLayers: what the coordinator's scatter/gather costs a query — the
// same probes sent straight to one worker, which answers for its own
// partition only.
func readLayers(s *serveInst, v map[string]float64, traced *window) error {
	var w window
	s.runOpsTo(s.engines[0].url, func(int, *wireAnswer) error { return nil },
		int64(s.c.scaled(6000, 100)), time.Now().Add(time.Minute), &w, nil)
	if w.failed > 0 {
		return fmt.Errorf("direct-to-worker leg: %d ops failed: %v", w.failed, w.notes)
	}
	v["distrib.scatter_overhead_ms"] = traced.rawP50() - median(w.lat)
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/serve"
)

// subOutcome is what the client saw of one POST /sweep.
type subOutcome struct {
	sent, start, first, last, done time.Time
	best                           *serve.CandidateSummary
	stats                          *serve.StatsSummary
	preempted                      int
	err                            error
}

// middleware times every request the server handles. Clients tag requests
// with the span and operation they belong to (X-Bench-Span, X-Bench-Op), so
// handler spans nest under the client's span; untagged requests nest under
// the current operation root, which the workload keeps in root.
type middleware struct {
	next   http.Handler
	r      *run
	root   atomic.Int64
	mu     sync.Mutex
	byPath map[string][]float64 // ms per route
	// firstPath names the route whose first completion since the last
	// reset is kept in firstAt (Unix ns); empty counts 204 No Content
	// answers (empty fleet leases).
	firstPath string
	firstAt   atomic.Int64
	empty     atomic.Int64
	rejected  atomic.Int64 // 429 and 503 refusals
}

func newMiddleware(next http.Handler, r *run, firstPath string) *middleware {
	m := &middleware{next: next, r: r, byPath: map[string][]float64{}, firstPath: firstPath}
	m.root.Store(-1)
	return m
}

// statusWriter records the response status. It forwards Flush and
// exposes the wrapped writer, so streamed NDJSON responses still stream.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// count returns how many requests hit path and their median duration.
func (m *middleware) count(path string) (int, float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byPath[path]), quantile(m.byPath[path], 0.5)
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	m.next.ServeHTTP(sw, req)
	end := time.Now()
	if req.URL.Path == m.firstPath {
		m.firstAt.CompareAndSwap(0, end.UnixNano())
	}
	switch sw.code {
	case http.StatusNoContent:
		m.empty.Add(1)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		m.rejected.Add(1)
	}
	if m.r.trace == nil {
		return
	}
	parent, op := int(m.root.Load()), 0
	if p, err := strconv.Atoi(req.Header.Get("X-Bench-Span")); err == nil {
		parent = p
	}
	if o, err := strconv.Atoi(req.Header.Get("X-Bench-Op")); err == nil {
		op = o
	}
	if parent < 0 {
		return // set-up traffic, outside every operation
	}
	route := req.URL.Path
	if strings.HasPrefix(route, "/fleet/sweeps/") {
		route = "/fleet/sweeps/{id}"
	}
	m.r.trace.add("http "+req.Method+" "+route, start, end, parent, op, 0)
	m.mu.Lock()
	m.byPath[req.URL.Path] = append(m.byPath[req.URL.Path], ms(end.Sub(start)))
	m.mu.Unlock()
}

// listen serves h on a loopback port and returns its base URL and a stop
// function that waits for the server goroutine.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	stop := func() {
		_ = srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// sameSummary compares a done event's best with the reference (candidate
// names are not unique, so the objective and cost bits decide).
func (b bestOf) sameSummary(cs *serve.CandidateSummary) error {
	if cs == nil {
		return errors.New("done event carries no best candidate")
	}
	if cs.Arch != b.name || math.Float64bits(cs.Objective) != math.Float64bits(b.obj) {
		return fmt.Errorf("best %s (obj %.17g) differs from reference %s (obj %.17g)", cs.Arch, cs.Objective, b.name, b.obj)
	}
	return nil
}

// submit POSTs one spec and reads its NDJSON stream to the end.
func submit(client *http.Client, url string, span, i int, spec dse.Spec) subOutcome {
	var o subOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequest(http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	req.Header.Set("X-Bench-Op", strconv.Itoa(i))
	o.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("POST /sweep %s answered %d", spec.ID, resp.StatusCode)
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.err = fmt.Errorf("sweep %s: bad event: %w", spec.ID, err)
			return o
		}
		switch ev.Type {
		case "start":
			if o.start.IsZero() {
				o.start = now
			}
		case "result":
			if o.first.IsZero() {
				o.first = now
			}
			o.last = now
		case "preempted":
			o.preempted++
		case "done":
			o.done, o.best, o.stats = now, ev.Best, ev.Stats
		case "error":
			o.err = fmt.Errorf("sweep %s: error event: %s", spec.ID, ev.Error)
			return o
		}
	}
	if err := sc.Err(); err != nil {
		o.err = fmt.Errorf("sweep %s: reading stream: %w", spec.ID, err)
		return o
	}
	if o.done.IsZero() || o.first.IsZero() || o.stats == nil {
		o.err = fmt.Errorf("sweep %s: stream ended without result and done events", spec.ID)
	}
	return o
}

// diskRoundTrip times the eval disk layer on a cache: SaveDisk to path,
// then LoadDisk of that file into a fresh cache. The file is removed after.
func (r *run) diskRoundTrip(c *eval.Cache, path string, ls *layerStats, parent, op int) error {
	defer os.Remove(path)
	t0 := time.Now()
	if err := c.SaveDisk(path); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := eval.NewCache().LoadDisk(path); err != nil {
		return err
	}
	t2 := time.Now()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.trace.add("eval.Cache.SaveDisk", t0, t1, parent, op, 0)
	r.trace.add("eval.Cache.LoadDisk", t1, t2, parent, op, 0)
	ls.diskSave = append(ls.diskSave, t1.Sub(t0).Seconds())
	ls.diskLoad = append(ls.diskLoad, t2.Sub(t1).Seconds())
	ls.diskBytes = append(ls.diskBytes, float64(fi.Size()))
	return nil
}

// measurePersistence times the persistence layers on the server's own
// files after the window: its eval cache spill (diskRoundTrip) and the
// newest sweep checkpoint (LoadCheckpoint, SaveCheckpoint).
func (r *run) measurePersistence(dir string, ls *layerStats, parent, op int) error {
	c := eval.NewCache()
	if _, err := c.LoadDisk(dse.CachePath(filepath.Join(dir, "cache"))); err != nil {
		return err
	}
	if err := r.diskRoundTrip(c, filepath.Join(dir, "resave.ndjson"), ls, parent, op); err != nil {
		return err
	}

	ckpts, _ := filepath.Glob(filepath.Join(dir, "data", "*.ckpt"))
	var newest string
	var newestAt time.Time
	for _, p := range ckpts {
		if fi, err := os.Stat(p); err == nil && fi.ModTime().After(newestAt) {
			newest, newestAt = p, fi.ModTime()
		}
	}
	if newest == "" {
		return errors.New("server wrote no checkpoint")
	}
	b, err := os.ReadFile(newest)
	if err != nil {
		return err
	}
	ses := dse.NewSession()
	t0 := time.Now()
	if err := ses.LoadCheckpoint(bytes.NewReader(b)); err != nil {
		return err
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		return err
	}
	t2 := time.Now()
	r.trace.add("dse.LoadCheckpoint", t0, t1, parent, op, 0)
	r.trace.add("dse.SaveCheckpoint", t1, t2, parent, op, 0)
	ls.ckptLoad = append(ls.ckptLoad, t1.Sub(t0).Seconds())
	ls.ckptSave = append(ls.ckptSave, t2.Sub(t1).Seconds())
	ls.ckptBytes = append(ls.ckptBytes, float64(len(b)))
	return nil
}

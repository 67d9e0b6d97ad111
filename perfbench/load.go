package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"firmup"
	"firmup/internal/serve"
	"firmup/internal/telemetry"
)

// clients is the load generator's connection budget: two closed-loop
// clients, or the two halves of each pair.
const clients = 2

// server is one serve.Server (the firmupd request path) on a loopback
// listener.
type server struct {
	hs       *http.Server
	url      string
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

// traceKeep is the traced server's retention, above any run's request
// count, so /debug/requests returns every traced request.
const traceKeep = 1 << 20

// startServer serves sc over loopback HTTP. A traced server samples
// every request and retains all of them for /debug/requests.
func startServer(sc *firmup.SealedCorpus, reg *telemetry.Registry, batch time.Duration, traced bool) (*server, error) {
	cfg := &serve.Config{Registry: reg, BatchWindow: batch}
	if traced {
		cfg.TraceSample = 1
		cfg.TraceKeep = traceKeep
		cfg.TraceSlow = -1
	}
	srv := serve.New(&serve.Corpus{Name: "perfbench", Sealed: sc, LoadedAt: time.Now()}, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
// Later calls return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.hs.Shutdown(ctx)
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && s.stopErr == nil {
			s.stopErr = err
		}
	})
	return s.stopErr
}

// get fetches a JSON endpoint of the server.
func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// sample is one completed request as the generator saw it.
type sample struct {
	req     request
	status  int
	latency time.Duration
	body    []byte
	traceID string
	err     error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// send posts one request to srv and reads the whole response.
func (lp *loadPlan) send(c *http.Client, srv *server, r request) sample {
	u := lp.ups[r.Upload]
	q := url.Values{"proc": {u.CVE.Procedure}}
	if r.Image >= 0 {
		q.Set("image", strconv.Itoa(r.Image))
	}
	s := sample{req: r}
	resp, err := c.Post(srv.url+"/search?"+q.Encode(), "application/octet-stream", bytes.NewReader(u.Data))
	if err != nil {
		s.err = err
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	s.traceID = resp.Header.Get(serve.TraceHeader)
	return s
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, for dur, from sequence position lp.cursor
// (advanced past every request taken). It returns the samples and the
// wall time from start to the last completion.
func (lp *loadPlan) closedLoop(srv *server, dur time.Duration) ([]sample, time.Duration) {
	c := newClient()
	defer c.CloseIdleConnections()
	var pos atomic.Int64
	pos.Store(int64(lp.cursor))
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				r, ok := lp.next(int(pos.Add(1) - 1))
				if !ok {
					return
				}
				t0 := time.Now()
				s := lp.send(c, srv, r)
				s.latency = time.Since(t0)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Taken positions are contiguous from lp.cursor; a draw past the end
	// of a bounded sequence returned no request and took no position.
	lp.cursor += len(out)
	return out, elapsed
}

// pairLoop runs rounds of one corpus-wide request sent on both
// connections at once, for dur, from pair position lp.cursor (advanced
// past every pair taken). A round starts when both halves of the
// previous one have completed, and each half's latency counts from the
// round's start.
func (lp *loadPlan) pairLoop(srv *server, dur time.Duration) ([]sample, time.Duration) {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []sample
	start := time.Now()
	for time.Since(start) < dur {
		r, _ := lp.next(lp.cursor)
		lp.cursor++
		pair := make([]sample, clients)
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pair[i] = lp.send(c, srv, r)
				pair[i].latency = time.Since(t0)
			}()
		}
		wg.Wait()
		out = append(out, pair...)
	}
	return out, time.Since(start)
}

// phaseResult gathers the samples of one server's measured phases.
type phaseResult struct {
	samples []sample
	elapsed time.Duration
	// traces (traced server only) maps trace IDs to the retained span
	// trees; batchMean is the server's mean coalesced batch size.
	traces    map[string]telemetry.TraceSnapshot
	batchMean float64
}

// latencies returns the latencies of the 200 responses in
// milliseconds.
func (p *phaseResult) latencies() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil && s.status == http.StatusOK {
			out = append(out, float64(s.latency)/float64(time.Millisecond))
		}
	}
	return out
}

// loadPlan is a workload's seeded request sequence over its uploads.
type loadPlan struct {
	wl   workload
	seed uint64
	ups  []upload
	// pool is device-check's bounded sequence of distinct requests.
	pool []request
	// cursor is the next sequence position (a request, or a pair on
	// cve-burst); it carries over between phases, so a traced run's
	// phases continue one sequence.
	cursor int
}

// next returns request i of the workload's seeded sequence, or false
// once device-check's pool is exhausted.
func (lp *loadPlan) next(i int) (request, bool) {
	if lp.wl.image {
		if i >= len(lp.pool) {
			return request{}, false
		}
		return lp.pool[i], true
	}
	return request{Upload: sweepOrder(lp.seed, len(lp.ups), i), Image: -1}, true
}

// run drives one phase of length dur against srv into into.
func (lp *loadPlan) run(srv *server, dur time.Duration, into *phaseResult) {
	var out []sample
	var elapsed time.Duration
	if lp.wl.pairs {
		out, elapsed = lp.pairLoop(srv, dur)
	} else {
		out, elapsed = lp.closedLoop(srv, dur)
	}
	into.samples = append(into.samples, out...)
	into.elapsed += elapsed
}

// measure runs the workload's measured phases. Untraced, that is one
// phase of dur against a server with tracing off. Traced, an untraced
// and a tracing server share the corpus and take alternating half
// phases (untraced, traced, traced, untraced), so drift over the run
// cancels out of their comparison; the tracing server's retained
// traces and batch sizes are read before it stops.
func (lp *loadPlan) measure(sc *firmup.SealedCorpus, dur time.Duration, traced bool) (*phaseResult, *phaseResult, error) {
	reg := telemetry.New()
	sc.SetTelemetry(reg)
	plainSrv, err := startServer(sc, reg, lp.wl.batch, false)
	if err != nil {
		return nil, nil, err
	}
	defer plainSrv.stop()
	plain := &phaseResult{}
	if !traced {
		lp.run(plainSrv, dur, plain)
		return plain, nil, plainSrv.stop()
	}
	traceSrv, err := startServer(sc, telemetry.New(), lp.wl.batch, true)
	if err != nil {
		return nil, nil, err
	}
	defer traceSrv.stop()
	tr := &phaseResult{}
	half := dur / 2
	lp.run(plainSrv, half, plain)
	lp.run(traceSrv, half, tr)
	lp.run(traceSrv, half, tr)
	lp.run(plainSrv, half, plain)
	if err := readTraces(traceSrv, tr); err != nil {
		return nil, nil, err
	}
	if err := traceSrv.stop(); err != nil {
		return nil, nil, err
	}
	return plain, tr, plainSrv.stop()
}

// readTraces fetches the tracing server's /debug/requests and /metrics.
func readTraces(srv *server, into *phaseResult) error {
	body, err := srv.get("/debug/requests")
	if err != nil {
		return err
	}
	var rs telemetry.RequestsSnapshot
	if err := json.Unmarshal(body, &rs); err != nil {
		return fmt.Errorf("decoding /debug/requests: %w", err)
	}
	into.traces = map[string]telemetry.TraceSnapshot{}
	for _, t := range rs.Slowest {
		if t.DroppedSpans > 0 {
			return fmt.Errorf("trace %s dropped %d spans", t.TraceID, t.DroppedSpans)
		}
		into.traces[t.TraceID] = t
	}
	if body, err = srv.get("/metrics"); err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	if h, ok := snap.Histograms["serve.batch_size"]; ok && h.Count > 0 {
		into.batchMean = float64(h.Sum) / float64(h.Count)
	}
	return nil
}

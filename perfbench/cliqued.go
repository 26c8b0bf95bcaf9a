package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/service"
)

// The cliqued workload drives an in-process query server (service.New
// behind httptest) with a closed loop of two clients, one per path.
// The hot client re-queries graphs loaded and warmed during set-up, in
// a seeded order; the cold client runs cold sessions — upload a fresh
// graph, stream its cliques as NDJSON, ask for its maximum clique,
// delete it.  Every hot request is a cache hit and every cold query a
// miss, by construction of the schedule, not by timing.  Giving each
// path its own client keeps each end-to-end metric on one path: the
// request rate is the hot client's (the cache path), the session time
// and time to first clique are the cold client's.

type cliquedSize struct {
	hotGraphs    int
	hotN, hotM   int
	coldGraphs   int // distinct cold graphs the cold client cycles through
	coldN, coldM int
	hotPerBlock  int // hot requests per block of the hot client
}

var (
	// A cold graph streams ~5400 cliques (~50 ms of enumeration, a
	// 1.2 MB upload); a hot graph's cached stream is a few KB.
	cliquedFull = cliquedSize{hotGraphs: 4, hotN: 600, hotM: 3000,
		coldGraphs: 3, coldN: 8000, coldM: 128000, hotPerBlock: 64}
	cliquedTiny = cliquedSize{hotGraphs: 2, hotN: 80, hotM: 400,
		coldGraphs: 2, coldN: 300, coldM: 2400, hotPerBlock: 4}
)

const (
	cliquedBudget    = 1 << 30 // the server's governor budget
	cliquedClients   = 2       // one hot, one cold
	cliquedSetupReps = 5
)

// cliquedGraph is one generated input with its in-core reference.
type cliquedGraph struct {
	body        []byte // edge-list upload body
	fingerprint string
	maximal     int64
	digest      uint64
	omega       int
}

type cliquedInputs struct {
	hot, cold []*cliquedGraph
}

func genCliqued(seed int64, sz cliquedSize) (*cliquedInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &cliquedInputs{}
	for i := 0; i < sz.hotGraphs+sz.coldGraphs; i++ {
		n, m, gs := sz.hotN, sz.hotM, &in.hot
		if i >= sz.hotGraphs {
			n, m, gs = sz.coldN, sz.coldM, &in.cold
		}
		g, err := newCliquedGraph(graph.RandomGNM(rng, n, m))
		if err != nil {
			return nil, err
		}
		*gs = append(*gs, g)
	}
	return in, nil
}

// inputDigest hashes every upload body, for the generation self-test.
func (in *cliquedInputs) inputDigest() uint64 {
	h := fnv.New64a()
	for _, g := range append(in.hot, in.cold...) {
		h.Write(g.body)
	}
	return h.Sum64()
}

func newCliquedGraph(g *repro.Graph) (*cliquedGraph, error) {
	var body bytes.Buffer
	if err := repro.WriteEdgeList(&body, g); err != nil {
		return nil, err
	}
	d := newDigest()
	n, err := repro.NewEnumerator(repro.WithBounds(3, 0)).Run(context.Background(), g, d)
	if err != nil {
		return nil, err
	}
	return &cliquedGraph{body: body.Bytes(), fingerprint: repro.Fingerprint(g),
		maximal: n, digest: d.sum(), omega: repro.MaxCliqueSize(g)}, nil
}

// server is one running cliqued instance plus the client talking to it.
type server struct {
	ts       *httptest.Server
	client   *http.Client
	warm     map[string][]byte // hot URL -> body of its warm-up miss
	hotURLs  []string
	baseline int64 // governor Used after set-up
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

func startServer(in *cliquedInputs) (*server, error) {
	s := &server{
		ts:     httptest.NewServer(service.New(service.Config{Budget: cliquedBudget})),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cliquedClients}},
		warm:   make(map[string][]byte),
	}
	ctx := context.Background()
	for _, g := range in.hot {
		if err := s.upload(ctx, g); err != nil {
			s.close()
			return nil, err
		}
		for _, u := range []string{s.cliquesURL(g), s.maxcliqueURL(g)} {
			body, hit, err := s.get(ctx, u)
			if err == nil && hit {
				err = fmt.Errorf("warm-up of %s hit the cache", u)
			}
			if err != nil {
				s.close()
				return nil, err
			}
			s.warm[u] = body
			s.hotURLs = append(s.hotURLs, u)
		}
		if err := checkCliqueBody(s.warm[s.cliquesURL(g)], g); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	st, err := s.healthz(ctx)
	if err != nil {
		s.close()
		return nil, err
	}
	s.baseline = st.Governor.Used
	return s, nil
}

func (s *server) cliquesURL(g *cliquedGraph) string {
	return s.ts.URL + "/graphs/" + g.fingerprint + "/cliques?lo=3"
}

func (s *server) maxcliqueURL(g *cliquedGraph) string {
	return s.ts.URL + "/graphs/" + g.fingerprint + "/maxclique"
}

// errShed marks a 503 or 507 response: the server refused the request.
var errShed = errors.New("shed")

func statusErr(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the message only
	err := fmt.Errorf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL.Path,
		resp.StatusCode, want, bytes.TrimSpace(msg))
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusInsufficientStorage {
		err = fmt.Errorf("%w: %v", errShed, err)
	}
	return err
}

func (s *server) do(req *http.Request, want int) (*http.Response, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp, want); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// upload POSTs g and checks the server created it under g's fingerprint.
func (s *server) upload(ctx context.Context, g *cliquedGraph) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/graphs?format=edgelist", bytes.NewReader(g.body))
	if err != nil {
		return err
	}
	resp, err := s.do(req, http.StatusCreated)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var info service.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if info.Fingerprint != g.fingerprint {
		return fmt.Errorf("upload: server fingerprint %s, want %s", info.Fingerprint, g.fingerprint)
	}
	return nil
}

// get fetches u whole and reports whether the cache served it.
func (s *server) get(ctx context.Context, u string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := s.do(req, http.StatusOK)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header.Get("X-Cliqued-Cache") == "hit", err
}

func (s *server) remove(ctx context.Context, g *cliquedGraph) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.ts.URL+"/graphs/"+g.fingerprint, nil)
	if err != nil {
		return err
	}
	resp, err := s.do(req, http.StatusOK)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

func (s *server) healthz(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	body, _, err := s.get(ctx, s.ts.URL+"/healthz")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// doneRecord is the terminal record of an NDJSON clique stream.
type doneRecord struct {
	Done      bool    `json:"done"`
	Count     int64   `json:"count"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// streamCheck folds NDJSON clique records into a digest comparable
// with the in-core reference: each record's integers, in order, are its
// size and then its vertices.
type streamCheck struct {
	d     *digest
	done  *doneRecord
	bytes int64
}

func (c *streamCheck) line(line []byte) error {
	c.bytes += int64(len(line))
	if c.done != nil {
		return fmt.Errorf("record after the done record")
	}
	if bytes.Contains(line, []byte(`"done"`)) {
		c.done = &doneRecord{}
		return json.Unmarshal(line, c.done)
	}
	if bytes.Contains(line, []byte(`"error"`)) {
		return fmt.Errorf("stream error: %s", bytes.TrimSpace(line))
	}
	c.d.n++
	v, in := 0, false
	for _, b := range line {
		if b >= '0' && b <= '9' {
			v, in = v*10+int(b-'0'), true
		} else if in {
			c.d.word(v)
			v, in = 0, false
		}
	}
	return nil
}

func (c *streamCheck) verify(g *cliquedGraph) error {
	switch {
	case c.done == nil || !c.done.Done:
		return fmt.Errorf("stream ended without a done record")
	case c.done.Count != g.maximal || c.d.n != g.maximal:
		return fmt.Errorf("stream done count %d (%d records), reference %d", c.done.Count, c.d.n, g.maximal)
	case c.d.sum() != g.digest:
		return fmt.Errorf("streamed cliques differ from the reference")
	}
	return nil
}

func checkCliqueBody(body []byte, g *cliquedGraph) error {
	c := &streamCheck{d: newDigest()}
	for _, l := range bytes.SplitAfter(body, []byte("\n")) {
		if len(l) == 0 {
			continue
		}
		if err := c.line(l); err != nil {
			return err
		}
	}
	return c.verify(g)
}

// coldQuery streams g's cliques, checking them as they arrive.
func (s *server) coldQuery(ctx context.Context, g *cliquedGraph) (ttfb time.Duration, c *streamCheck, err error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cliquesURL(g), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.do(req, http.StatusOK)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if h := resp.Header.Get("X-Cliqued-Cache"); h != "miss" {
		return 0, nil, fmt.Errorf("cold query served with cache %q", h)
	}
	c = &streamCheck{d: newDigest()}
	br := bufio.NewReader(resp.Body)
	for {
		line, rerr := br.ReadSlice('\n')
		if len(line) > 0 {
			if ttfb == 0 {
				ttfb = time.Since(start)
			}
			if err := c.line(line); err != nil {
				return ttfb, c, err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return ttfb, c, rerr
		}
	}
	return ttfb, c, c.verify(g)
}

// clientLog is what one client observed.
type clientLog struct {
	attempted, failed, shed int64
	failures                []error
	hot                     []float64 // ms
	coldTTFB, coldDone      []float64 // ms
	load, del, maxclique    []float64 // ms
	session                 []float64 // s, whole cold session
	streamKB, enumS, counts []float64
}

func (l *clientLog) op(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if errors.Is(err, errShed) {
			l.shed++
		}
		if len(l.failures) < 8 {
			l.failures = append(l.failures, err)
		}
	}
}

// call is one block's way of timing its requests.
type call struct {
	tr   *tracer // nil in an untraced block
	root int
	run  string
	req  int
	lg   *clientLog
}

// timed runs one request, counts it and returns how long it took.
func (c *call) timed(name string, f func() error) (time.Duration, error) {
	c.req++
	t := time.Now()
	err := f()
	if c.tr != nil {
		c.tr.record("service."+name, c.root, fmt.Sprintf("%s-req%d", c.run, c.req), t, time.Now())
	}
	c.lg.op(err)
	return time.Since(t), err
}

// runClient runs blocks until the deadline passes and returns how long
// the client ran.  Blocks alternate untraced and traced when tr is
// non-nil; only untraced blocks feed the end-to-end samples, only
// traced ones the per-layer samples.
func runClient(name string, deadline time.Time, tr *tracer, plain, traced *clientLog, block func(b int, c *call)) time.Duration {
	start := time.Now()
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		c := &call{tr: tr, lg: traced, run: fmt.Sprintf("%s-block%d", name, b)}
		if tr == nil || b%2 == 0 {
			c.tr, c.lg = nil, plain
		}
		var end func()
		c.root, end = c.tr.begin("bench.cliqued_"+name, 0, c.run)
		block(b, c)
		end()
	}
	return time.Since(start)
}

// hotBlock re-queries warmed graphs in the seeded order rng gives.
func (s *server) hotBlock(ctx context.Context, rng *rand.Rand, sz cliquedSize, c *call) {
	for i := 0; i < sz.hotPerBlock; i++ {
		u := s.hotURLs[rng.Intn(len(s.hotURLs))]
		d, err := c.timed("hot", func() error {
			body, hit, err := s.get(ctx, u)
			switch {
			case err != nil:
				return err
			case !hit:
				return fmt.Errorf("hot request %s missed the cache", u)
			case !bytes.Equal(body, s.warm[u]):
				return fmt.Errorf("hot body of %s differs from its warm-up body", u)
			}
			return nil
		})
		if err == nil {
			c.lg.hot = append(c.lg.hot, millis(d))
		}
	}
}

// coldSession uploads g, streams its cliques, asks for its maximum
// clique and deletes it.
func (s *server) coldSession(ctx context.Context, g *cliquedGraph, c *call) {
	lg := c.lg
	start := time.Now()
	d, err := c.timed("upload", func() error { return s.upload(ctx, g) })
	if err != nil {
		return
	}
	lg.load = append(lg.load, millis(d))
	var ttfb time.Duration
	var sc *streamCheck
	d, err = c.timed("cliques", func() error {
		var err error
		ttfb, sc, err = s.coldQuery(ctx, g)
		return err
	})
	sessionOK := err == nil
	if err == nil {
		lg.coldTTFB = append(lg.coldTTFB, millis(ttfb))
		lg.coldDone = append(lg.coldDone, millis(d))
		lg.streamKB = append(lg.streamKB, float64(sc.bytes)/1e3)
		lg.enumS = append(lg.enumS, sc.done.ElapsedMS/1e3)
		lg.counts = append(lg.counts, float64(sc.done.Count))
	}
	d, err = c.timed("maxclique", func() error {
		body, hit, err := s.get(ctx, s.maxcliqueURL(g))
		if err != nil {
			return err
		}
		var mc struct{ Size int }
		if err := json.Unmarshal(body, &mc); err != nil {
			return err
		}
		if hit || mc.Size != g.omega {
			return fmt.Errorf("cold maxclique: size %d (cache hit %v), reference %d", mc.Size, hit, g.omega)
		}
		return nil
	})
	if err == nil {
		lg.maxclique = append(lg.maxclique, millis(d))
	}
	sessionOK = sessionOK && err == nil
	// The delete runs whatever the queries did, so the next upload of
	// this graph is fresh again.
	d, err = c.timed("delete", func() error { return s.remove(ctx, g) })
	if err == nil {
		lg.del = append(lg.del, millis(d))
	}
	if sessionOK && err == nil {
		lg.session = append(lg.session, time.Since(start).Seconds())
	}
}

func runCliqued(cfg config) (*result, error) {
	sz := cliquedTiny
	if cfg.full {
		sz = cliquedFull
	}
	var in *cliquedInputs
	var srv *server
	setup, err := measureSetup(cliquedSetupReps, func() error {
		var err error
		if in, err = genCliqued(cfg.seed, sz); err != nil {
			return err
		}
		srv, err = startServer(in)
		return err
	}, func() { srv.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.close()
	if cfg.corrupt {
		for _, g := range in.cold {
			g.digest ^= 1
		}
	}
	res := newResult()
	res.set("setup_s", setup, cliquedSetupReps)
	if cfg.trace {
		res.tr = newTracer()
	}
	if err := resetRSSPeak(); err != nil {
		return nil, err
	}

	// The 60 s margin only bounds a hung request; a healthy block ends
	// well inside it.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.measure+60*time.Second)
	defer cancel()
	var hotP, hotT, coldP, coldT clientLog
	var hotRan, coldRan time.Duration
	deadline := time.Now().Add(cfg.measure)
	var wg sync.WaitGroup
	wg.Add(cliquedClients)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed * 7919))
		hotRan = runClient("hot", deadline, res.tr, &hotP, &hotT, func(_ int, c *call) {
			srv.hotBlock(ctx, rng, sz, c)
		})
	}()
	go func() {
		defer wg.Done()
		coldRan = runClient("cold", deadline, res.tr, &coldP, &coldT, func(b int, c *call) {
			srv.coldSession(ctx, in.cold[b%len(in.cold)], c)
		})
	}()
	wg.Wait()

	var p, t clientLog
	p.merge(&hotP)
	p.merge(&coldP)
	t.merge(&hotT)
	t.merge(&coldT)
	res.attempted = p.attempted + t.attempted
	for _, e := range append(p.failures, t.failures...) {
		res.failures = append(res.failures, e.Error())
	}
	res.failed = p.failed + t.failed

	st, err := srv.healthz(ctx)
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if st.ResidualBytes != 0 {
		res.fail(fmt.Errorf("healthz: residual_bytes %d after the run", st.ResidualBytes))
	}
	if st.Governor.Used != srv.baseline {
		res.fail(fmt.Errorf("healthz: governor used %d after the run, %d after set-up", st.Governor.Used, srv.baseline))
	}

	// Each client's rate is over its own running time: the cold client
	// finishes its last session up to one session after the deadline,
	// while the hot client stops within one short block of it.
	hotDone := hotP.completed() + hotT.completed()
	coldDone := coldP.completed() + coldT.completed()
	hotRate := float64(hotDone) / hotRan.Seconds()
	coldRate := float64(coldDone) / coldRan.Seconds()
	reqPerS := hotRate + coldRate
	completed := hotDone + coldDone
	res.note("hot client: %d requests in %.2f s (%.0f/s, %.1f%% of all requests)",
		hotDone, hotRan.Seconds(), hotRate, 100*ratio(float64(hotDone), float64(completed)))
	res.note("cold client: %d requests in %.2f s (%.1f/s), %d whole sessions",
		coldDone, coldRan.Seconds(), coldRate, len(p.session)+len(t.session))
	res.set("wall_s", median(p.session), len(p.session))
	res.set("ops_per_s", reqPerS, int(completed))
	res.set("first_ms", median(p.coldTTFB), len(p.coldTTFB))
	res.set("peak_mb", float64(st.Governor.Peak)/1e6, 1)
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rss, 1)
	if !cfg.trace {
		return res, nil
	}

	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	res.set("trace.overhead_s", median(t.session)-median(p.session), len(t.session))
	res.set("service.req_per_s", reqPerS, int(completed))
	res.set("service.hot_p50_ms", median(t.hot), len(t.hot))
	res.set("service.hot_p90_ms", quantile(t.hot, 0.9), len(t.hot))
	res.set("service.cold_ttfb_p50_ms", median(t.coldTTFB), len(t.coldTTFB))
	res.set("service.cold_p50_ms", median(t.coldDone), len(t.coldDone))
	res.set("service.cold_p90_ms", quantile(t.coldDone, 0.9), len(t.coldDone))
	res.set("service.load_ms", median(t.load), len(t.load))
	res.set("service.delete_ms", median(t.del), len(t.del))
	res.set("service.maxclique_ms", median(t.maxclique), len(t.maxclique))
	res.set("service.stream_kb", median(t.streamKB), len(t.streamKB))
	lookups := st.Cache.Hits + st.Cache.Misses
	res.set("service.cache_hit_ratio", ratio(float64(st.Cache.Hits), float64(lookups)), int(lookups))
	res.set("service.shed", float64(p.shed+t.shed), int(res.attempted))
	res.set("service.residual_bytes", float64(st.ResidualBytes), 1)
	res.set("enum.s", median(t.enumS), len(t.enumS))
	res.set("enum.maximal", median(t.counts), len(t.counts))
	res.setSelfTimes(len(t.session))
	res.zeroLayers()
	return res, nil
}

func (l *clientLog) completed() int64 { return l.attempted - l.failed }

func (l *clientLog) merge(o *clientLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.shed += o.shed
	l.failures = append(l.failures, o.failures...)
	l.hot = append(l.hot, o.hot...)
	l.coldTTFB = append(l.coldTTFB, o.coldTTFB...)
	l.coldDone = append(l.coldDone, o.coldDone...)
	l.load = append(l.load, o.load...)
	l.del = append(l.del, o.del...)
	l.maxclique = append(l.maxclique, o.maxclique...)
	l.session = append(l.session, o.session...)
	l.streamKB = append(l.streamKB, o.streamKB...)
	l.enumS = append(l.enumS, o.enumS...)
	l.counts = append(l.counts, o.counts...)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nassim"
	"nassim/internal/configgen"
	"nassim/internal/devmodel"
	"nassim/internal/pipeline"
	"nassim/internal/serve"
)

// serveScale is the corpus scale of every served request.
const serveScale = 0.02

// freshPerSec paces the requests for never-used keys. Their number is a
// fixed share of the run's length, not of the requests sent, so the
// daemon's result cache and artifact store end every run at the same
// size however fast the code serves. At the daemon's current speed of
// about 12 000 requests a second they are about 0.04% of the requests,
// so every reported percentile lies inside the cache hits; the misses
// show in items_per_s, taking about 4% of the clients' time, and in the
// traced run's serve.miss_p50_ms. The pace is kept this low because the
// executions allocate heavily: at 25 a second they took a fifth of the
// clients' time and items_per_s spread twice as widely between runs on
// a shared 2-vCPU host.
const freshPerSec = 5

// hotSet is the warmed request mix: each vendor with and without config
// validation, plus all four vendors validated. Weights favour Huawei
// with validation so the median sits well inside one response size.
func hotSet() ([]serve.Request, []int) {
	var reqs []serve.Request
	var weights []int
	for _, v := range nassim.Vendors() {
		w, wv := 5, 5
		if v == "Huawei" {
			w, wv = 10, 50
		}
		reqs = append(reqs,
			serve.Request{Vendors: []string{v}, Scale: serveScale},
			serve.Request{Vendors: []string{v}, Scale: serveScale, Validate: true})
		weights = append(weights, w, wv)
	}
	reqs = append(reqs, serve.Request{Scale: serveScale, Validate: true})
	weights = append(weights, 10)
	return reqs, weights
}

// freshRequest is the i-th never-used key: Huawei validated and live
// tested with a seed no other request of the run uses.
func freshRequest(seed uint64, i int) serve.Request {
	return serve.Request{Vendors: []string{"Huawei"}, Scale: serveScale, Validate: true,
		LiveTest: true, Seed: derive(seed, 7, i)}
}

// daemon is an in-process nassimd on a loopback port.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

func startDaemon(runner serve.Runner, maxResults int) (*daemon, error) {
	srv, err := serve.NewServer(serve.Config{Runner: runner, MaxResults: maxResults})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: serve.Handler(srv)},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.done
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// client is one synchronous caller with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// post sends one request and reads the whole body into c.buf.
func (c *client) post(body []byte) (status int, dedup string, err error) {
	resp, err := c.hc.Post(c.base+"/v1/assimilate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get(serve.HeaderDedup), err
}

func (c *client) get(path string) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// truth is what a served vendor result must say, from the ground-truth
// model the daemon's synthetic inputs are generated from.
type truth struct {
	corpora, invalid, unused int
	hasConfigs               bool
}

func serveTruth() (map[string]truth, error) {
	out := map[string]truth{}
	for _, v := range nassim.Vendors() {
		m, err := nassim.SyntheticModel(v, serveScale)
		if err != nil {
			return nil, err
		}
		t := truth{corpora: len(m.Commands), invalid: len(m.SyntaxErrorIDs), unused: len(m.Commands)}
		if cc, ok := configgen.PaperConfig(devmodel.Vendor(v)); ok {
			t.hasConfigs = true
			t.unused -= len(configgen.Generate(m, cc.Scaled(serveScale)).UsedCommandIDs)
		}
		out[v] = t
	}
	return out, nil
}

// checkBody decodes a served response and holds each vendor's counts to
// the ground truth.
func checkBody(body []byte, req serve.Request, want map[string]truth) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	n := req.Normalize()
	if resp.Key != n.Key() || len(resp.Vendors) != len(n.Vendors) {
		return fmt.Errorf("response key %.12s with %d vendors, request %.12s with %d",
			resp.Key, len(resp.Vendors), n.Key(), len(n.Vendors))
	}
	for i, vr := range resp.Vendors {
		t := want[n.Vendors[i]]
		validated := n.Validate && t.hasConfigs
		// Live testing covers the commands the validator saw no instance
		// of. At this scale two instantiated Huawei commands share their
		// instances with a sibling template the validator credits instead,
		// so the tested count may exceed the never-instantiated count.
		liveMin, liveMax := 0, 0
		if n.LiveTest {
			liveMin, liveMax = t.unused, t.corpora
		}
		switch {
		case vr.Vendor != n.Vendors[i]:
			return fmt.Errorf("vendor %d is %s, want %s", i, vr.Vendor, n.Vendors[i])
		case vr.Corpora != t.corpora || vr.InvalidCLIs != t.invalid || vr.Corrected != t.invalid:
			return fmt.Errorf("%s: %d corpora, %d invalid, %d corrected; model %d commands, %d corrupted",
				vr.Vendor, vr.Corpora, vr.InvalidCLIs, vr.Corrected, t.corpora, t.invalid)
		case validated != (vr.ConfigFiles > 0) || vr.ConfigLinesMatched != vr.ConfigLinesTotal:
			return fmt.Errorf("%s: %d config files, %d of %d lines matched", vr.Vendor, vr.ConfigFiles, vr.ConfigLinesMatched, vr.ConfigLinesTotal)
		case vr.LiveTested < liveMin || vr.LiveTested > liveMax || vr.LiveVerified != vr.LiveTested || len(vr.Degraded) > 0:
			return fmt.Errorf("%s: live tested %d, verified %d, degraded %v; %d of %d commands never instantiated",
				vr.Vendor, vr.LiveTested, vr.LiveVerified, vr.Degraded, liveMin, liveMax)
		}
	}
	return nil
}

// serveTrace records the daemon's side of traced requests: the runner
// call and its pipeline stages, keyed back to the client's operation.
type serveTrace struct {
	tr   *tracer
	mu   sync.Mutex
	ops  map[string]int       // request key -> traced op
	sent map[string]time.Time // request key -> client send time
}

func (st *serveTrace) lookup(key string) (int, time.Time, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	op, ok := st.ops[key]
	return op, st.sent[key], ok
}

// wrap returns a Runner that records a span for each traced execution
// and, through the StageObserver, each of its stages.
func (st *serveTrace) wrap(inner serve.Runner) serve.Runner {
	return func(ctx context.Context, req serve.Request, observe serve.StageObserver) ([]byte, error) {
		op, sent, ok := st.lookup(req.Key())
		if !ok {
			return inner(ctx, req, observe)
		}
		t0 := time.Now()
		st.tr.add(op, "serve.admit", "serve.request", sent, t0)
		obs := func(vendor, stage string) func() {
			end := st.tr.begin(op, "stage."+stage, "serve.runner")
			var done func()
			if observe != nil {
				done = observe(vendor, stage)
			}
			return func() {
				end()
				if done != nil {
					done()
				}
			}
		}
		b, err := inner(ctx, req, obs)
		st.tr.add(op, "serve.runner", "serve.request", t0, time.Now())
		return b, err
	}
}

type sample struct {
	lat   time.Duration
	end   time.Duration // completion, from the start of the run
	miss  bool
	bytes int
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	samples, traced []sample // untraced and traced requests
	fails           []string
}

// mix is the closed loop's request schedule and what every request is
// checked against.
type mix struct {
	r       *run
	st      *serveTrace // nil in untraced runs
	base    string
	hot     []serve.Request
	hotBody [][]byte // the hot requests, encoded
	warm    [][]byte // each hot key's response bytes from set-up
	weights []int
	want    map[string]truth
	fresh   int          // fresh requests owed over the run
	issued  atomic.Int64 // fresh requests taken so far
	t0      time.Time
}

// due is when the i-th fresh request may be sent.
func (mx *mix) due(i int64) time.Duration {
	return time.Duration((float64(i) + 0.5) * float64(mx.r.dur) / float64(mx.fresh))
}

// next picks a client's next request: a fresh one when one is due, else
// a weighted hot one. Once the run's time is up only owed fresh requests
// are sent; done reports that none are left.
func (mx *mix) next(rng *rand.Rand, total int) (req serve.Request, body []byte, hotIdx int, done bool) {
	for {
		elapsed := time.Since(mx.t0)
		n := mx.issued.Load()
		if n < int64(mx.fresh) && elapsed >= mx.due(n) && mx.issued.CompareAndSwap(n, n+1) {
			req = freshRequest(mx.r.seed, int(n))
			body, _ = json.Marshal(req)
			return req, body, -1, false
		}
		if elapsed >= mx.r.dur {
			if n >= int64(mx.fresh) {
				return req, nil, 0, true
			}
			continue
		}
		x := rng.IntN(total)
		for hotIdx = 0; x >= mx.weights[hotIdx]; hotIdx++ {
			x -= mx.weights[hotIdx]
		}
		return mx.hot[hotIdx], mx.hotBody[hotIdx], hotIdx, false
	}
}

// client runs one synchronous caller until the schedule is exhausted.
// In a traced run every other request is traced.
func (mx *mix) client(ci, clients int) clientLog {
	var log clientLog
	c := newClient(mx.base)
	defer c.hc.CloseIdleConnections()
	rng := rand.New(rand.NewPCG(derive(mx.r.seed, 8, ci), 0))
	total := 0
	for _, w := range mx.weights {
		total += w
	}
	for n := 0; ; n++ {
		req, body, hotIdx, done := mx.next(rng, total)
		if done {
			return log
		}
		op := ci + clients*n
		traced := mx.st != nil && n%2 == 0
		s0 := time.Now()
		if traced && hotIdx < 0 {
			mx.st.mu.Lock()
			mx.st.ops[req.Key()], mx.st.sent[req.Key()] = op, s0
			mx.st.mu.Unlock()
		}
		status, dedup, err := c.post(body)
		lat := time.Since(s0)
		s := sample{lat: lat, end: time.Since(mx.t0), miss: hotIdx < 0, bytes: c.buf.Len()}
		if traced {
			mx.r.tr.add(op, "serve.request", "", s0, s0.Add(lat))
			log.traced = append(log.traced, s)
		} else {
			log.samples = append(log.samples, s)
		}
		switch {
		case err != nil || status != http.StatusOK:
			err = fmt.Errorf("status %d, %v", status, err)
		case hotIdx >= 0 && (dedup != serve.DedupCache || !bytes.Equal(c.buf.Bytes(), mx.warm[hotIdx])):
			err = fmt.Errorf("hot request %d: dedup %q, body differs from its warm-up bytes", hotIdx, dedup)
		case hotIdx < 0 && dedup != serve.DedupMiss:
			err = fmt.Errorf("fresh request: dedup %q, want %q", dedup, serve.DedupMiss)
		case hotIdx < 0:
			err = checkBody(c.buf.Bytes(), req, mx.want)
		}
		if err != nil {
			log.fails = append(log.fails, err.Error())
		}
	}
}

// serveMixed drives an in-process nassimd over loopback HTTP with a
// closed loop of one synchronous client per core. Most requests hit the
// hot set warmed in set-up and are answered from the daemon's byte
// cache; requests for never-used keys, due at a fixed pace, execute the
// runner.
func serveMixed(r *run, res *result) (err error) {
	want, err := serveTruth()
	if err != nil {
		return err
	}
	hot, weights := hotSet()
	mx := &mix{r: r, hot: hot, weights: weights, want: want,
		hotBody: make([][]byte, len(hot)), warm: make([][]byte, len(hot)),
		fresh: int(freshPerSec * r.dur.Seconds())}
	for i, h := range hot {
		if mx.hotBody[i], err = json.Marshal(h); err != nil {
			return err
		}
	}
	if r.tr != nil {
		mx.st = &serveTrace{tr: r.tr, ops: map[string]int{}, sent: map[string]time.Time{}}
	}
	d, err := warmDaemon(mx, res)
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	mx.base = d.base
	stats0 := d.srv.Stats()

	clients := runtime.NumCPU()
	logs := make([]clientLog, clients)
	mx.t0 = time.Now()
	res.measure(func() {
		var wg sync.WaitGroup
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				logs[ci] = mx.client(ci, clients)
			}(ci)
		}
		wg.Wait()
	})
	res.busy = time.Since(mx.t0)

	var all, hits, misses []time.Duration
	var bytesTotal float64
	perSecond := make([]float64, int(r.dur/time.Second))
	for _, log := range logs {
		for i := 0; i < len(log.samples)+len(log.traced); i++ {
			res.check(i < len(log.fails))
		}
		for _, f := range log.fails {
			res.fail("serve-mixed: %s", f)
		}
		for _, s := range log.samples {
			res.lat = append(res.lat, s.lat)
		}
		for _, s := range log.traced {
			res.tracedLat = append(res.tracedLat, s.lat)
		}
		for _, group := range [][]sample{log.samples, log.traced} {
			for _, s := range group {
				all = append(all, s.lat)
				if sec := int(s.end / time.Second); sec < len(perSecond) {
					perSecond[sec]++
				}
				bytesTotal += float64(s.bytes)
				if s.miss {
					misses = append(misses, s.lat)
				} else {
					hits = append(hits, s.lat)
				}
			}
		}
	}
	res.rates = perSecond
	stats := d.srv.Stats()
	execs := stats.Executions - stats0.Executions
	if execs != int64(mx.fresh) || mx.issued.Load() != int64(mx.fresh) {
		res.fail("serve-mixed: %d executions for %d fresh requests (%d scheduled)", execs, mx.issued.Load(), mx.fresh)
		res.check(true)
	}

	L := res.layers
	res.tail("p90_ms", res.lat, 0.90)
	res.tail("p99_ms", res.lat, 0.99)
	res.tail("p999_ms", res.lat, 0.999)
	L["serve.hit_p50_ms"] = median(sortedMS(hits))
	L["serve.miss_p50_ms"] = median(sortedMS(misses))
	L["serve.resp_kb"] = bytesTotal / float64(len(all)) / 1024
	L["serve.executions"] = float64(execs)
	if n := stats.Requests - stats0.Requests; n > 0 {
		L["serve.dedup_hit_ratio"] = float64(stats.DedupInflight+stats.DedupCached-stats0.DedupInflight-stats0.DedupCached) / float64(n)
	}
	L["serve.queue_max"] = float64(stats.QueueMax)
	L["serve.shed"] = float64(stats.Shed - stats0.Shed)
	res.notes = append(res.notes, fmt.Sprintf("%d clients, %d requests, %d for fresh keys (%.2f%%)",
		clients, len(all), len(misses), 100*float64(len(misses))/float64(len(all))))
	if mx.st == nil {
		return nil
	}
	attributeRunner(r.tr, L, res)
	floor, err := clientFloor(d.base)
	if err != nil {
		return err
	}
	L["serve.client_floor_ms"] = floor
	return nil
}

// warmDaemon is serve-mixed's set-up, repeated setupReps times: start a
// daemon and warm the hot set. It keeps the last daemon and each hot
// key's response, checked against the ground truth.
func warmDaemon(mx *mix, res *result) (*daemon, error) {
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		runner := serve.NewRunner(serve.RunnerConfig{})
		if mx.st != nil {
			runner = mx.st.wrap(runner)
		}
		var err error
		if d, err = startDaemon(runner, len(mx.hot)+mx.fresh+64); err != nil {
			return nil, err
		}
		c := newClient(d.base)
		for i, b := range mx.hotBody {
			status, _, err := c.post(b)
			if err != nil || status != http.StatusOK {
				d.stop()
				return nil, fmt.Errorf("warming %v: status %d, %v", mx.hot[i], status, err)
			}
			mx.warm[i] = append(mx.warm[i][:0], c.buf.Bytes()...)
		}
		res.setup = append(res.setup, time.Since(t0))
		c.hc.CloseIdleConnections()
	}
	for i, b := range mx.warm {
		if err := checkBody(b, mx.hot[i], mx.want); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up result for %v: %w", mx.hot[i], err)
		}
	}
	return d, nil
}

// attributeRunner derives the daemon-side metrics of traced executions:
// admission (client send to runner start), runner time, the runner time
// no stage span covers, and the live-testing stage every execution runs.
func attributeRunner(tr *tracer, L map[string]float64, res *result) {
	runner, admit, stages := tr.byName("serve.runner"), tr.byName("serve.admit"), map[int]time.Duration{}
	for _, sp := range tr.spans {
		if sp.Parent == "serve.runner" {
			stages[sp.Op] += sp.dur()
		}
	}
	var runnerMS, admitMS, unattributed []float64
	for op, d := range runner {
		runnerMS = append(runnerMS, ms(d))
		admitMS = append(admitMS, ms(admit[op]))
		unattributed = append(unattributed, ms(d-stages[op]))
	}
	L["serve.runner_ms"] = median(runnerMS)
	L["serve.admit_ms"] = median(admitMS)
	L["serve.runner_unattributed_ms"] = median(unattributed)
	var liveMS []float64
	for _, d := range tr.byName("stage." + string(pipeline.StageLiveTest)) {
		liveMS = append(liveMS, ms(d))
	}
	L["empirical.live_ms"] = median(liveMS)
	if m := median(runnerMS); m > 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"runner executions: %.1f%% of runner time is outside any stage (input synthesis, response encoding)",
			100*median(unattributed)/m))
	}
}

// clientFloor is the median idle GET /healthz round trip: the client and
// HTTP cost every request pays.
func clientFloor(base string) (float64, error) {
	c := newClient(base)
	defer c.hc.CloseIdleConnections()
	var floor []time.Duration
	for i := 0; i < 200; i++ {
		s0 := time.Now()
		status, err := c.get("/healthz")
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("healthz: status %d, %v", status, err)
		}
		floor = append(floor, time.Since(s0))
	}
	return median(sortedMS(floor)), nil
}

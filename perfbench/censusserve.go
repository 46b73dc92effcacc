package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// census-serve: a census.Daemon over benchserve's synthetic
// population, served by a real http.Server on 127.0.0.1 to two
// keep-alive HTTP/1.1 pollers in a closed loop (each waits for its
// reply before sending again). Beside the reads, a publisher records
// an entry and publishes a snapshot every time the served-request
// count crosses the next step, so every run does the same writes per
// read whatever its speed; a wall-clock cadence made the number of
// publishes per run, and with it the read rate, vary.

const (
	censusPopulation  = 5000
	censusClients     = 2
	censusPublishStep = 15_000 // served responses between publishes
	censusSetups      = 3
	censusWarmup      = 2_000 // requests per client before timing
	// spanHeader carries a request's span ID from client to handler.
	spanHeader = "X-Perfbench-Span"
)

var censusT0 = time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)

// buildPopulation synthesizes benchserve's deterministic measurement
// log: nodes spread over three epochs with a realistic client and
// network mix, a churn tail that leaves after the first window, and
// late arrivals. It is cmd/benchserve's generator, copied because a
// main package cannot be imported; the same seed gives the same log.
func buildPopulation(n int, seed int64, interval time.Duration) []*mlog.Entry {
	rng := rand.New(rand.NewSource(seed))
	mainnet := chain.MainnetGenesisHash.Hex()
	clients := []struct {
		name   string
		weight int
	}{
		{"Geth/v1.8.10-stable/linux-amd64/go1.10", 40},
		{"Geth/v1.8.11-stable/linux-amd64/go1.10", 20},
		{"Geth/v1.8.2-unstable/linux-amd64/go1.10", 7},
		{"Parity-Ethereum/v1.10.6-stable", 22},
		{"Parity-Ethereum/v1.11.1-beta", 5},
		{"cpp-ethereum/v1.3.0", 3},
		{"EthereumJ/v1.8.1", 3},
	}
	var weighted []string
	for _, c := range clients {
		for i := 0; i < c.weight; i++ {
			weighted = append(weighted, c.name)
		}
	}
	var entries []*mlog.Entry
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%040x", i)
		ip := fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(220), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		client := weighted[rng.Intn(len(weighted))]
		if rng.Intn(10) == 0 { // never answers: a failed dial only
			entries = append(entries, &mlog.Entry{
				Time: censusT0.Add(time.Duration(rng.Int63n(int64(interval)))), NodeID: id, IP: ip,
				ConnType: mlog.ConnDynamicDial, Err: "connection refused",
			})
			continue
		}
		windows := []int{0}
		switch {
		case rng.Intn(4) == 0: // one-shots: first window only
		case rng.Intn(8) == 0: // late arrivals
			windows = []int{1, 2}
		default:
			windows = []int{0, 1, 2}
		}
		for _, wi := range windows {
			at := censusT0.Add(time.Duration(wi)*interval + time.Duration(rng.Int63n(int64(interval))))
			e := &mlog.Entry{
				Time: at, NodeID: id, IP: ip, ConnType: mlog.ConnDynamicDial,
				LatencyUS: 500 + rng.Int63n(400_000),
				Hello:     &mlog.HelloInfo{Version: 5, ClientName: client, Caps: []string{"eth/63"}},
			}
			switch {
			case rng.Intn(100) < 85:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: 1, GenesisHash: mainnet,
					BestBlock: 5_500_000 + uint64(rng.Intn(60_000))}
				e.DAOFork = "supported"
			case rng.Intn(2) == 0:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(2 + rng.Intn(5000)),
					GenesisHash: mainnet}
				e.DAOFork = "unknown"
			default:
				e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(2 + rng.Intn(50)),
					GenesisHash: fmt.Sprintf("%064x", rng.Int63())}
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// censusBench is one census-serve set-up: a daemon with three
// finalized windows published, and the entries it was built from.
type censusBench struct {
	d       *census.Daemon
	ids     []string
	entries []*mlog.Entry
	clk     *simclock.Simulated
	geo     *geo.DB
}

func newCensusBench(seed int64, population int) *censusBench {
	clk := simclock.NewSimulated(censusT0)
	g := geo.NewDB()
	d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: g})
	entries := buildPopulation(population, seed, census.DefaultInterval)
	for _, e := range entries {
		d.Record(e)
	}
	d.Start()
	clk.Advance(4 * census.DefaultInterval) // three finalized windows served
	d.Stop()                                // from here on only the publisher publishes
	return &censusBench{d: d, ids: d.Current().NodeIDs(), entries: entries, clk: clk, geo: g}
}

// serveRun is one measured serving phase.
type serveRun struct {
	requests    int
	failures    int
	elapsed     time.Duration
	latencyMS   dist
	notModified int
	bodyBytes   int64
	publishMS   dist
	recordNS    dist
	publishes   int
	planned     int
	reqSpans    []reqSpan
	pubSpans    [][2]int64
	windows     *rateWindows
}

// reqSpan is one client-observed request, in tracer time.
type reqSpan struct {
	id         uint64
	start, end int64
}

// serve runs censusClients pollers against b over loopback, warm-up
// requests first and then for the given time, with the publisher
// beside them. tr, when non-nil, receives request, handler and
// publish spans.
func (b *censusBench) serve(rep *report, seed int64, seconds float64, warmup int, tr *tracer) serveRun {
	var handler http.Handler = census.NewHandler(census.ServerConfig{Source: b.d})
	if tr != nil {
		handler = tracedHandler{inner: handler, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rep.problem("listen: %v", err)
		return serveRun{}
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	var (
		serveErr error
		serving  sync.WaitGroup
	)
	labels("phase", "run", "side", "server")
	serving.Add(1)
	go func() {
		defer serving.Done()
		serveErr = srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()

	var (
		run     serveRun
		served  atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex // guards run's request fields
		wg      sync.WaitGroup
		kick    = make(chan struct{}, 1)
		pubStop = make(chan struct{})
		pubDone = make(chan struct{})
		origin  = time.Now()
		now     = func() int64 { return int64(time.Since(origin)) }
	)
	if tr != nil {
		now = tr.now // span times and request times share one origin
	}
	step := int64(censusPublishStep)
	if rep.cfg.tiny {
		step = 100
	}

	// The publisher owns every write: one recorded entry and one
	// snapshot publish per step of served requests.
	labels("phase", "run", "side", "publisher")
	go func() {
		defer close(pubDone)
		rng := rand.New(rand.NewSource(seed + 1_000_003))
		publish := func() {
			e := &mlog.Entry{
				Time: b.clk.Now(), NodeID: fmt.Sprintf("live%032x", run.publishes),
				IP:       fmt.Sprintf("9.9.%d.%d", rng.Intn(256), 1+rng.Intn(254)),
				ConnType: mlog.ConnDynamicDial,
				Hello:    &mlog.HelloInfo{Version: 5, ClientName: "Geth/v1.8.11-stable", Caps: []string{"eth/63"}},
			}
			t := time.Now()
			b.d.Record(e)
			run.recordNS.add(float64(time.Since(t)))
			b.entries = append(b.entries, e)
			start := now()
			b.d.Publish()
			end := now()
			run.publishMS.add(float64(end-start) / 1e6)
			run.pubSpans = append(run.pubSpans, [2]int64{start, end})
			if tr != nil {
				tr.add(spanPublish, uint64(run.publishes), -1, start, end)
			}
			run.publishes++
		}
		for {
			select {
			case <-kick:
			case <-pubStop:
				// Catch up on the last step crossed before the stop.
				for int64(run.publishes) < served.Load()/step {
					publish()
				}
				return
			}
			for int64(run.publishes) < served.Load()/step {
				publish()
			}
		}
	}()

	labels("phase", "run", "side", "client")
	var warm sync.WaitGroup
	measure := make(chan struct{})
	for c := 0; c < censusClients; c++ {
		wg.Add(1)
		warm.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newPoller(base, b.ids, seed, c)
			defer cl.close()
			for i := 0; i < warmup; i++ {
				if err := cl.do(0, nil); err != nil {
					mu.Lock()
					run.failures++
					rep.problem("warm-up: %v", err)
					mu.Unlock()
				}
			}
			warm.Done()
			<-measure
			for i := uint64(1); !stop.Load(); i++ {
				id := uint64(c+1)<<40 | i
				start := now()
				err := cl.do(id, tr)
				end := now()
				n := served.Add(1)
				if n%step == 0 {
					select {
					case kick <- struct{}{}:
					default: // the publisher is already awake
					}
				}
				mu.Lock()
				run.requests++
				run.latencyMS.add(float64(end-start) / 1e6)
				if tr != nil {
					run.reqSpans = append(run.reqSpans, reqSpan{id, start, end})
				}
				if err != nil {
					run.failures++
					rep.problem("%v", err)
				}
				mu.Unlock()
			}
			mu.Lock()
			run.notModified += cl.notModified
			run.bodyBytes += cl.bodyBytes
			mu.Unlock()
		}(c)
	}
	labels("phase", "run")

	warm.Wait()
	began := time.Now()
	run.windows = newRateWindows()
	close(measure)
	for prev, end := int64(0), began.Add(time.Duration(seconds*float64(time.Second))); time.Now().Before(end); {
		time.Sleep(min(time.Second, time.Until(end)))
		n := served.Load()
		run.windows.tick(int(n-prev), time.Now())
		prev = n
	}
	stop.Store(true)
	wg.Wait()
	run.elapsed = time.Since(began)
	close(pubStop)
	<-pubDone
	run.planned = int(served.Load() / step)

	srv.Close() //nolint:errcheck // every request has completed
	serving.Wait()
	if serveErr != http.ErrServerClosed {
		rep.problem("serve: %v", serveErr)
	}
	labels()
	return run
}

// check applies census-serve's output checks to one phase.
func (r *serveRun) check(rep *report) {
	rep.count(r.requests, r.failures)
	rep.count(r.planned, 0)
	if r.publishes != r.planned {
		rep.count(0, 1)
		rep.problem("%d publishes, planned %d (one per %d served requests)", r.publishes, r.planned, censusPublishStep)
	}
}

func runCensusServe(cfg runConfig, rep *report) {
	population, warmup := censusPopulation, censusWarmup
	if cfg.tiny {
		population, warmup = 300, 20
	}
	var setup dist
	var b *censusBench
	for i := 0; i < censusSetups; i++ {
		start := time.Now()
		b = newCensusBench(cfg.seed, population)
		setup.add(time.Since(start).Seconds())
	}
	if cfg.trace {
		traceCensusServe(cfg, rep, b, population, warmup)
		return
	}
	run := b.serve(rep, cfg.seed, cfg.seconds, warmup, nil)
	run.check(rep)
	rep.add("setup_s", "s", setup.median(), setup.n(),
		fmt.Sprintf("median of %d builds of a %d-node census daemon (4 publishes each)", setup.n(), population))
	rep.add("ops_per_s", "1/s", run.windows.median(), run.requests,
		fmt.Sprintf("req_per_s: median of %d one-second windows, %d keep-alive pollers", run.windows.rates.n(), censusClients))
	rep.addLatency("op_p50_ms", "op_p99_ms", "ms", chunk(run.latencyMS.xs, 1000), "req_p50/req_p99: client-observed request latency")
	rep.add("peak_rss_mb", "MiB", peakRSSMiB(), 1, "VmHWM")
	rep.note("publish_ms %.4g (median of %d publishes under read load); not-modified %.3f",
		run.publishMS.median(), run.publishMS.n(), float64(run.notModified)/float64(max(run.requests, 1)))
	rep.note("responses per second by window: %.0f", run.windows.rates.xs)
}

// Span names of the traced serving phase.
var censusSpans = []string{"census.request", "census.handler", "census.publish"}

const (
	spanRequest = iota
	spanHandler
	spanPublish
)

// traceCensusServe serves untraced on the set-up daemon (the rate
// baseline), then builds a fresh daemon under the CPU profile and
// serves it again with request, handler and publish spans.
func traceCensusServe(cfg runConfig, rep *report, b *censusBench, population, warmup int) {
	base := b.serve(rep, cfg.seed, cfg.seconds/2, warmup, nil)
	base.check(rep)

	prof, err := startCPUProfile()
	if err != nil {
		rep.problem("%v", err)
		return
	}
	labels("phase", "setup")
	tb := newCensusBench(cfg.seed, population)
	tr := newTracer(censusSpans...)
	run := tb.serve(rep, cfg.seed, cfg.seconds/2, warmup, tr)
	labels()
	p, path, err := prof.stop(cfg.outDir, fmt.Sprintf("census-serve-seed%d", cfg.seed))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	run.check(rep)

	// Handler spans carry the request's ID; the rest of a request's
	// latency is net/http, loopback and the client.
	st := tr.stats()
	handlerByID := make(map[uint64]int64, st["census.handler"].count)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if int(s.name) == spanHandler {
			handlerByID[s.id] = s.end - s.start
		}
	}
	tr.mu.Unlock()
	var handlerNS, requestNS int64
	var handlerUS, busyUS, idleUS dist
	pubs := run.pubSpans
	for _, r := range run.reqSpans {
		h, ok := handlerByID[r.id]
		if !ok {
			continue
		}
		handlerNS += h
		requestNS += r.end - r.start
		handlerUS.add(float64(h) / 1e3)
		during := false
		for _, p := range pubs {
			if r.start < p[1] && p[0] < r.end {
				during = true
				break
			}
		}
		if during {
			busyUS.add(float64(r.end-r.start) / 1e3)
		} else {
			idleUS.add(float64(r.end-r.start) / 1e3)
		}
	}
	if handlerUS.n() != run.requests {
		rep.problem("%d of %d requests have a handler span", handlerUS.n(), run.requests)
	}
	rep.addLatency("census.handler_us_p50", "census.handler_us_p99", "us", chunk(handlerUS.xs, 1000), "handler wrapper span")
	rep.add("census.handler_frac", "ratio", float64(handlerNS)/float64(max(requestNS, 1)), handlerUS.n(), "handler time ÷ client-observed latency")
	rep.add("census.not_modified_ratio", "ratio", float64(run.notModified)/float64(max(run.requests, 1)), run.requests, "304 responses")
	rep.add("census.bytes_per_resp", "B", float64(run.bodyBytes)/float64(max(run.requests, 1)), run.requests, "response body bytes")
	rep.add("census.publish_ms", "ms", run.publishMS.median(), run.publishMS.n(), "Daemon.Publish under read load, median")
	rep.add("census.record_ns", "ns", run.recordNS.median(), run.recordNS.n(), "Daemon.Record, median")
	rep.add("census.publishes", "count", float64(run.publishes), run.publishes, "one per served-request step")
	p99 := func(d *dist) float64 { v, _ := d.quantile(0.99); return v }
	_, busyBeyond := busyUS.quantile(0.99)
	rep.add("census.req_p99_us.during_publish", "us", p99(&busyUS), busyUS.n(), fmt.Sprintf("requests overlapping a publish, %d beyond p99", busyBeyond))
	_, idleBeyond := idleUS.quantile(0.99)
	rep.add("census.req_p99_us.idle", "us", p99(&idleUS), idleUS.n(), fmt.Sprintf("requests overlapping none, %d beyond p99", idleBeyond))

	// BuildSnapshot alone, on the same entries with no read load:
	// the publish figure minus this is what serving costs a publish.
	var build dist
	for i := 0; i < 3; i++ {
		start := time.Now()
		census.BuildSnapshot(census.BuildParams{
			Epoch: uint64(1000 + i), Now: tb.clk.Now(), Start: censusT0,
			Interval: census.DefaultInterval, Entries: tb.entries, Geo: tb.geo,
		})
		build.add(float64(time.Since(start)) / 1e6)
	}
	rep.add("census.build_ms", "ms", build.median(), build.n(), "BuildSnapshot with no read load, median")
	tracedRate := float64(run.requests) / run.elapsed.Seconds()
	baseRate := float64(base.requests) / base.elapsed.Seconds()
	rep.add("trace.overhead", "ratio", tracedRate/baseRate, run.requests,
		fmt.Sprintf("traced %.0f ÷ untraced %.0f req/s", tracedRate, baseRate))
	addCPUMetrics(rep, p)
	runKernels(rep, cfg.seed, cfg.tiny)

	spans, err := tr.write(cfg.outDir, fmt.Sprintf("census-serve-seed%d", cfg.seed))
	if err != nil {
		rep.problem("writing spans: %v", err)
	}
	rep.note("spans: %s; profile: %s", spans, path)
}

// tracedHandler records a handler span under the request's ID.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if err != nil { // warm-up requests carry no span ID
		h.inner.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	h.tr.add(spanHandler, id, -1, start, h.tr.now())
}

// poller is one closed-loop client on its own keep-alive connection.
type poller struct {
	base        string
	ids         []string
	rng         *rand.Rand
	transport   *http.Transport
	client      *http.Client
	body        bytes.Buffer
	etag        string
	epoch       uint64
	notModified int
	bodyBytes   int64
}

func newPoller(base string, ids []string, seed int64, c int) *poller {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &poller{
		base:      base,
		ids:       ids,
		rng:       rand.New(rand.NewSource(seed + int64(c))),
		transport: tr,
		client:    &http.Client{Transport: tr},
	}
}

func (p *poller) close() { p.transport.CloseIdleConnections() }

var cachedTargets = []string{
	"/", "/v1/summary", "/v1/clients", "/v1/geo", "/v1/networks",
	"/v1/series/churn", "/v1/series/arrivals",
}

// do sends the next request of benchserve's mix and checks the reply:
// 60% cached censuses, 20% If-None-Match revalidations, 15% node
// lookups, 5% series slices.
func (p *poller) do(id uint64, tr *tracer) error {
	var path, node string
	revalidate := false
	switch x := p.rng.Intn(100); {
	case x < 60:
		path = cachedTargets[p.rng.Intn(len(cachedTargets))]
	case x < 80:
		path, revalidate = "/v1/summary", p.etag != ""
	case x < 95:
		node = p.ids[p.rng.Intn(len(p.ids))]
		path = "/v1/nodes/" + node
	default:
		path = "/v1/series/churn?last=3"
	}
	req, err := http.NewRequest(http.MethodGet, p.base+path, nil)
	if err != nil {
		return err
	}
	if revalidate {
		req.Header.Set("If-None-Match", p.etag)
	}
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	p.body.Reset()
	_, err = p.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET %s: body: %w", path, err)
	}
	p.bodyBytes += int64(p.body.Len())

	epoch, err := strconv.ParseUint(resp.Header.Get("X-Census-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("GET %s: status %d, epoch header %q", path, resp.StatusCode, resp.Header.Get("X-Census-Epoch"))
	}
	if epoch < p.epoch {
		return fmt.Errorf("GET %s: epoch went back from %d to %d", path, p.epoch, epoch)
	}
	p.epoch = epoch
	if etag := resp.Header.Get("ETag"); etag != "" {
		if etag != strconv.Quote("census-"+strconv.FormatUint(epoch, 10)) {
			return fmt.Errorf("GET %s: ETag %s for epoch %d", path, etag, epoch)
		}
		p.etag = etag
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		if !revalidate {
			return fmt.Errorf("GET %s: 304 without If-None-Match", path)
		}
		p.notModified++
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(p.body.String()))
	}
	if node != "" {
		var ns struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(p.body.Bytes(), &ns); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		if ns.ID != node {
			return fmt.Errorf("GET %s: answered for node %q", path, ns.ID)
		}
		return nil
	}
	if !json.Valid(p.body.Bytes()) {
		return fmt.Errorf("GET %s: body is not JSON", path)
	}
	return nil
}

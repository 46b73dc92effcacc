package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/enode"
	"repro/internal/metrics"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simnet"
)

// crawl-sim: the 100k-node analytic world crawled by the sharded
// Finder exactly as cmd/benchcrawl builds it, to 99% census. No
// protocol bytes move and no crypto runs during the crawl: the
// simulated clock's event loop, the scheduler, the analytic dialer
// and discovery, and the measurement log do the work. World
// construction (geo lookups, keccak) is set-up.

const (
	simNodes    = 100_000
	simSetups   = 3 // world builds timed for setup_s
	simConverge = 0.99
	simChunk    = 30 * time.Minute // virtual time per Advance, as benchcrawl
	simMaxHours = 48               // virtual cap; a crawl this long has failed
)

func buildSimWorld(seed int64, nodes int) *simnet.World {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 0 // a fixed census target: no identities minted mid-crawl
	return simnet.NewWorld(cfg)
}

// simCensus is the crawl's consumer: it counts distinct identities
// and records when each first reached it. It sits behind an
// mlog.Batcher, so its work runs on the flusher goroutine, as in
// benchcrawl.
type simCensus struct {
	mu       sync.Mutex
	t0       time.Time
	distinct map[string]struct{}
	total    uint64
	firstMS  dist // wall ms from crawl start to each node's first record
}

func (c *simCensus) Record(e *mlog.Entry) {
	c.mu.Lock()
	if _, ok := c.distinct[e.NodeID]; !ok {
		c.distinct[e.NodeID] = struct{}{}
		c.firstMS.add(float64(time.Since(c.t0)) / 1e6)
	}
	c.total++
	c.mu.Unlock()
}

func (c *simCensus) counts() (int, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.distinct), c.total
}

// simCrawl is one crawl's outcome.
type simCrawl struct {
	distinct     int
	conns        uint64 // mlog records
	counted      uint64 // summed finder.conns counters
	queueDropped uint64
	virtual      time.Duration
	wall         time.Duration
	firstMS      dist
	converged    bool
}

// crawl runs the Finder over w until 99% of the world is censused. A
// non-nil tracer wraps the Dialer, Discovery and log sink and times
// every Advance.
func crawl(w *simnet.World, seed int64, tr *tracer) simCrawl {
	reg := metrics.New()
	cen := &simCensus{distinct: make(map[string]struct{}, len(w.Nodes))}
	batch := mlog.NewBatcher(cen)
	defer batch.Close()

	simDialer := w.NewDialer(seed + 2)
	simDialer.Metrics = nodefinder.NewDialerMetrics(reg)
	var (
		dialer nodefinder.Dialer    = simDialer
		disc   nodefinder.Discovery = w.NewDiscovery(seed + 1)
		sink   mlog.Sink            = batch
	)
	if tr != nil {
		dialer = &tracedDialer{inner: dialer, tr: tr}
		disc = &tracedDiscovery{inner: disc, tr: tr}
		sink = tracedSink{inner: sink, tr: tr}
	}
	f, err := nodefinder.New(nodefinder.Config{
		Clock:           w.Clock,
		Discovery:       disc,
		Dialer:          dialer,
		Log:             sink,
		Metrics:         reg,
		Seed:            seed + 3,
		LookupWorkers:   16,
		DialShards:      8,
		MaxDynamicDials: 256,
	})
	if err != nil {
		panic(err) // the config above is valid by construction
	}

	target := int(simConverge * float64(len(w.Nodes)))
	var res simCrawl
	start := time.Now()
	cen.mu.Lock()
	cen.t0 = start
	cen.mu.Unlock()
	f.Start()
	for res.virtual < simMaxHours*time.Hour {
		if tr != nil {
			s := tr.begin(spanAdvance, 0)
			w.Clock.Advance(simChunk)
			tr.end(s)
		} else {
			w.Clock.Advance(simChunk)
		}
		res.virtual += simChunk
		// The census lags the Finder by the batcher's flush; wait for
		// every counted connection to reach it, so the stop point —
		// and with it every count — is a function of the seed alone.
		want := reg.Snapshot().CounterSum("finder.conns")
		deadline := time.Now().Add(10 * time.Second)
		for {
			distinct, total := cen.counts()
			if total >= want || time.Now().After(deadline) {
				res.converged = distinct >= target
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		if res.converged {
			break
		}
	}
	res.wall = time.Since(start)
	f.Stop()
	batch.Close()
	snap := reg.Snapshot()
	res.counted = snap.CounterSum("finder.conns")
	res.queueDropped = snap.Counter("finder.queue_dropped")
	res.distinct, res.conns = cen.counts()
	cen.mu.Lock()
	res.firstMS = cen.firstMS
	cen.mu.Unlock()
	return res
}

// check applies crawl-sim's output checks to one crawl.
func (c *simCrawl) check(rep *report, nodes int) {
	rep.count(int(c.conns), 0)
	if !c.converged {
		rep.count(0, 1)
		rep.problem("census reached %d of %d nodes (%.2f%%) in %s virtual, want ≥%.0f%%",
			c.distinct, nodes, 100*float64(c.distinct)/float64(nodes), c.virtual, simConverge*100)
	}
	if c.counted != c.conns {
		diff := int(c.counted) - int(c.conns)
		if diff < 0 {
			diff = -diff
		}
		rep.count(0, diff)
		rep.problem("finder.conns total %d != %d mlog records", c.counted, c.conns)
	}
}

func runCrawlSim(cfg runConfig, rep *report) {
	nodes := simNodes
	if cfg.tiny {
		nodes = 3000
	}
	setups := simSetups
	if cfg.trace {
		setups = 1
	}
	var setup dist
	var w *simnet.World
	for i := 0; i < setups; i++ {
		w = nil
		runtime.GC()
		start := time.Now()
		w = buildSimWorld(cfg.seed, nodes)
		setup.add(time.Since(start).Seconds())
	}
	if cfg.trace {
		traceCrawlSim(cfg, rep, w, nodes, &setup)
		return
	}

	// Crawl again on a fresh world while another whole crawl still
	// fits in the measured time.
	var crawls []simCrawl
	var rate dist
	var firstMS []dist
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	for {
		c := crawl(w, cfg.seed, nil)
		c.check(rep, nodes)
		crawls = append(crawls, c)
		rate.add(float64(c.distinct) / c.wall.Seconds())
		firstMS = append(firstMS, c.firstMS)
		if time.Since(began)+c.wall > budget {
			break
		}
		w = nil
		runtime.GC()
		start := time.Now()
		w = buildSimWorld(cfg.seed, nodes)
		setup.add(time.Since(start).Seconds())
	}
	for _, c := range crawls[1:] {
		if c.distinct != crawls[0].distinct || c.conns != crawls[0].conns {
			rep.problem("crawls of one seed disagree: %d/%d vs %d/%d distinct/conns",
				c.distinct, c.conns, crawls[0].distinct, crawls[0].conns)
		}
	}
	c := crawls[0]
	rep.add("setup_s", "s", setup.median(), setup.n(), fmt.Sprintf("median of %d builds of a %d-node analytic world", setup.n(), nodes))
	rep.add("ops_per_s", "1/s", rate.median(), len(crawls),
		fmt.Sprintf("nodes_per_s: distinct nodes censused per wall second to %.0f%%, median of crawls", simConverge*100))
	rep.addLatency("op_p50_ms", "op_p99_ms", "ms", firstMS, "wall time from crawl start to a node's first census record; a chunk per crawl")
	rep.add("peak_rss_mb", "MiB", peakRSSMiB(), 1, "VmHWM")
	walls := make([]string, len(crawls))
	for i, c := range crawls {
		walls[i] = fmt.Sprintf("%.2f", c.wall.Seconds())
	}
	rep.note("crawl: %d distinct, %d conns, %.1f virtual h; wall s per crawl: %s",
		c.distinct, c.conns, c.virtual.Hours(), strings.Join(walls, " "))
}

// Span names of the traced crawl.
var simSpans = []string{"simclock.advance", "simnet.dial", "nodefinder.dial_done", "simnet.lookup", "nodefinder.lookup_done", "mlog.record"}

const (
	spanAdvance = iota
	spanSimDial
	spanDialDone
	spanLookup
	spanLookupDone
	spanRecord
)

// traceCrawlSim crawls untraced (the rate baseline), then crawls a
// fresh world of the same seed with every Finder interface wrapped,
// every Advance timed and the CPU profiled. Both crawls must census
// the same nodes with the same number of connections.
func traceCrawlSim(cfg runConfig, rep *report, w *simnet.World, nodes int, setup *dist) {
	base := crawl(w, cfg.seed, nil)
	base.check(rep, nodes)
	w = nil
	runtime.GC()

	prof, err := startCPUProfile()
	if err != nil {
		rep.problem("%v", err)
		return
	}
	labels("phase", "setup")
	start := time.Now()
	w = buildSimWorld(cfg.seed, nodes)
	setup.add(time.Since(start).Seconds())
	labels("phase", "run")
	tr := newTracer(simSpans...)
	c := crawl(w, cfg.seed, tr)
	labels()
	p, path, err := prof.stop(cfg.outDir, fmt.Sprintf("crawl-sim-seed%d", cfg.seed))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	c.check(rep, nodes)
	if c.distinct != base.distinct || c.conns != base.conns {
		rep.problem("traced crawl censused %d/%d distinct/conns, untraced %d/%d",
			c.distinct, c.conns, base.distinct, base.conns)
	}

	st := tr.stats()
	rep.add("simclock.advance_s", "s", st["simclock.advance"].total.Seconds(), st["simclock.advance"].count, "total in Advance")
	rep.add("simclock.self_s", "s", st["simclock.advance"].self.Seconds(), st["simclock.advance"].count, "Advance minus the wrapped calls it ran")
	rep.add("simnet.dial_calls", "count", float64(st["simnet.dial"].count), st["simnet.dial"].count, "SimDialer.Dial calls")
	rep.add("simnet.dial_s", "s", st["simnet.dial"].total.Seconds(), st["simnet.dial"].count, "total in SimDialer.Dial")
	rep.add("simnet.lookup_calls", "count", float64(st["simnet.lookup"].count), st["simnet.lookup"].count, "SimDiscovery.Lookup calls")
	rep.add("simnet.lookup_s", "s", st["simnet.lookup"].total.Seconds(), st["simnet.lookup"].count, "total in SimDiscovery.Lookup")
	rep.add("simnet.world_build_s", "s", setup.median(), setup.n(), "median analytic world build")
	rep.add("nodefinder.dial_done_s", "s", st["nodefinder.dial_done"].total.Seconds(), st["nodefinder.dial_done"].count, "total in the Finder's dial callbacks")
	rep.add("nodefinder.lookup_done_s", "s", st["nodefinder.lookup_done"].total.Seconds(), st["nodefinder.lookup_done"].count, "total in the Finder's lookup callbacks")
	rep.add("nodefinder.queue_dropped", "count", float64(c.queueDropped), 1, "finder.queue_dropped")
	rep.add("nodefinder.conns_per_node", "ratio", float64(c.conns)/float64(max(c.distinct, 1)), c.distinct, "conns ÷ distinct nodes")
	rep.add("nodefinder.virtual_h", "h", c.virtual.Hours(), 1, "virtual hours to converge")
	rep.add("mlog.records", "count", float64(st["mlog.record"].count), st["mlog.record"].count, "records the Finder logged")
	rep.add("mlog.record_s", "s", st["mlog.record"].total.Seconds(), st["mlog.record"].count, "total in the log sink (batcher append)")
	rep.add("sim.distinct", "count", float64(c.distinct), 1, "distinct nodes censused")
	rep.add("sim.conns", "count", float64(c.conns), 1, "connections logged")
	rep.add("trace.overhead", "ratio", (float64(c.distinct)/c.wall.Seconds())/(float64(base.distinct)/base.wall.Seconds()), 2,
		fmt.Sprintf("traced %.2f s ÷ untraced %.2f s crawl, as a rate", c.wall.Seconds(), base.wall.Seconds()))
	addCPUMetrics(rep, p)
	runKernels(rep, cfg.seed, cfg.tiny)

	spans, err := tr.write(cfg.outDir, fmt.Sprintf("crawl-sim-seed%d", cfg.seed))
	if err != nil {
		rep.problem("writing spans: %v", err)
	}
	rep.note("crawl: %d distinct, %d conns, %.1f virtual h (identical traced and untraced)", c.distinct, c.conns, c.virtual.Hours())
	rep.note("spans: %s; profile: %s", spans, path)
}

// tracedDialer times SimDialer.Dial and the Finder's done callback.
// Every span of one dial carries the dial's sequence number.
type tracedDialer struct {
	inner nodefinder.Dialer
	tr    *tracer
	seq   uint64
}

func (d *tracedDialer) Dial(n *enode.Node, kind mlog.ConnType, done func(*nodefinder.DialResult)) {
	d.seq++
	id := d.seq
	s := d.tr.begin(spanSimDial, id)
	d.inner.Dial(n, kind, func(res *nodefinder.DialResult) {
		s := d.tr.begin(spanDialDone, id)
		done(res)
		d.tr.end(s)
	})
	d.tr.end(s)
}

// tracedDiscovery times SimDiscovery.Lookup and the Finder's done
// callback.
type tracedDiscovery struct {
	inner nodefinder.Discovery
	tr    *tracer
	seq   uint64
}

func (d *tracedDiscovery) Self() enode.ID { return d.inner.Self() }

func (d *tracedDiscovery) Lookup(target enode.ID, done func([]*enode.Node)) {
	d.seq++
	id := d.seq
	s := d.tr.begin(spanLookup, id)
	d.inner.Lookup(target, func(found []*enode.Node) {
		s := d.tr.begin(spanLookupDone, id)
		done(found)
		d.tr.end(s)
	})
	d.tr.end(s)
}

// tracedSink times the Finder's calls into its log sink.
type tracedSink struct {
	inner mlog.Sink
	tr    *tracer
}

func (t tracedSink) Record(e *mlog.Entry) {
	s := t.tr.begin(spanRecord, 0)
	t.inner.Record(e)
	t.tr.end(s)
}

package main

import (
	"errors"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/chain"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simnet"
)

// crawl-wire: nodefinder.RealDialer dialing a WireFidelity world
// through World.DialWire, one dial in flight. Every dial runs the
// real RLPx handshake (secp256k1, keccak, ECIES) against a promoted
// simulated peer, so both sides of the handshake are measured. With
// one dial in flight the outcome sequence is a pure function of the
// seed; two in flight saturate both cores of a small box and their
// rate stops repeating.

const (
	wireNodes      = 3000 // world size; set-up mints one key per node
	wireTraceDials = 1500 // dials per phase of the traced run
	wireSetups     = 5    // world builds timed for setup_s
)

// wireStages are the spans of one traced dial, in chain order.
var wireStages = []string{"dial", "simnet.dialwire", "rlpx.initiate", "devp2p.hello", "eth.status", "eth.dao", "devp2p.disconnect"}

const (
	spanDial = iota
	spanDialWire
	spanInitiate
	spanHello
	spanStatus
	spanDAO
	spanDisconnect
)

// wireBench is one crawl-wire set-up: the world, the crawler's
// identity and the seeded target sequence.
type wireBench struct {
	w       *simnet.World
	online  []*simnet.SimNode
	targets *rand.Rand
	key     *secp256k1.PrivateKey
	hello   devp2p.Hello
	status  eth.Status
	now     time.Time
	// rlpxWait sums the time traced dials spent blocked in Read
	// inside rlpx.initiate.
	rlpxWait time.Duration
}

func newWireBench(seed int64, nodes int) (*wireBench, error) {
	cfg := simnet.DefaultConfig(seed)
	cfg.BaseNodes = nodes
	cfg.AbusiveIPs = 0
	cfg.UnreachableFraction = 0
	cfg.HostileFraction = 0
	cfg.WireFidelity = true
	w := simnet.NewWorld(cfg)
	b := &wireBench{
		w:       w,
		targets: rand.New(rand.NewSource(seed)),
		now:     w.Clock.Now(),
		hello: devp2p.Hello{
			Version:    devp2p.Version,
			Name:       "NodeFinder/perfbench",
			Caps:       []devp2p.Cap{{Name: eth.ProtocolName, Version: 62}, {Name: eth.ProtocolName, Version: 63}},
			ListenPort: 30303,
		},
		status: eth.Status{
			ProtocolVersion: uint32(eth.Version63),
			NetworkID:       chain.MainnetNetworkID,
			TD:              new(big.Int),
			GenesisHash:     chain.MainnetGenesisHash,
			BestHash:        chain.MainnetGenesisHash,
		},
	}
	key, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed ^ 0x6372776c)))
	if err != nil {
		return nil, fmt.Errorf("crawler key: %w", err)
	}
	b.key = key
	// The simulated clock never advances in this workload, so the
	// online set is fixed for the whole run.
	for _, n := range w.Nodes {
		if n.Reachable && n.OnlineAt(b.now) {
			b.online = append(b.online, n)
		}
	}
	if len(b.online) == 0 {
		w.CloseWire()
		return nil, errors.New("no online node in the world")
	}
	return b, nil
}

func (b *wireBench) next() *simnet.SimNode { return b.online[b.targets.Intn(len(b.online))] }

func (b *wireBench) dialer() *nodefinder.RealDialer {
	return &nodefinder.RealDialer{
		Key:      b.key,
		Hello:    b.hello,
		Status:   b.status,
		CheckDAO: true,
		DialFunc: b.w.DialWire,
	}
}

// judge checks one dial against the node's ground truth.
func (b *wireBench) judge(n *simnet.SimNode, res *nodefinder.DialResult) error {
	class := nodefinder.OutcomeClass(res)
	if n.Service == simnet.SvcEth {
		if class != "eth-handshake" && class != "too-many-peers" {
			return fmt.Errorf("eth node %s: outcome %s (%v)", n.Node.ID.TerminalString(), class, res.Err)
		}
	} else if class != "hello-no-eth" && class != "too-many-peers" {
		return fmt.Errorf("%s node %s: outcome %s (%v)", n.Service, n.Node.ID.TerminalString(), class, res.Err)
	}
	if res.Hello != nil && res.Hello.ID != n.Node.ID {
		return fmt.Errorf("node %s: HELLO carries ID %s", n.Node.ID.TerminalString(), res.Hello.ID.TerminalString())
	}
	if res.Status == nil {
		return nil
	}
	if n.Network == nil || res.Status.NetworkID != n.Network.NetworkID || res.Status.GenesisHash != n.Network.GenesisHash {
		return fmt.Errorf("node %s: STATUS network %d genesis %x, want %v", n.Node.ID.TerminalString(),
			res.Status.NetworkID, res.Status.GenesisHash[:4], n.Network)
	}
	if res.DAOChecked != (res.Status.NetworkID == chain.MainnetNetworkID) {
		return fmt.Errorf("node %s: DAO check ran=%v on network %d", n.Node.ID.TerminalString(), res.DAOChecked, res.Status.NetworkID)
	}
	if res.DAOChecked {
		want := eth.DAOForkUnknown
		if n.BestBlockAt(b.now) >= chain.DAOForkBlock {
			want = eth.DAOForkOpposed
			if n.Network.DAOFork {
				want = eth.DAOForkSupported
			}
		}
		if res.DAOFork != want {
			return fmt.Errorf("node %s: DAO verdict %v, network says %v", n.Node.ID.TerminalString(), res.DAOFork, want)
		}
	}
	return nil
}

// finish checks that every promoted peer demoted, then tears the
// world down.
func (b *wireBench) finish(rep *report) {
	deadline := time.Now().Add(5 * time.Second)
	for b.w.PromotedActive() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.count(1, 0)
	if n := b.w.PromotedActive(); n != 0 {
		rep.count(0, 1)
		rep.problem("%d promoted peers still active after the dial loop", n)
	}
	b.w.CloseWire()
}

// wireRun is the result of one untraced dial loop.
type wireRun struct {
	dials    int
	elapsed  time.Duration
	latency  dist // ms per dial
	windows  *rateWindows
	outcomes map[string]int
	// prefix is outcomes over the first wireTraceDials dials: the
	// counts a traced run of the same seed reports, for comparison.
	prefix   map[string]int
	failures int
}

// dialLoop drives RealDialer with one dial in flight until maxDials
// dials are done or the time is up, whichever comes first.
func (b *wireBench) dialLoop(rep *report, maxDials int, seconds float64) wireRun {
	d := b.dialer()
	type done struct {
		res *nodefinder.DialResult
		at  time.Time
	}
	ch := make(chan done) // the loop below is always waiting for it
	run := wireRun{outcomes: make(map[string]int)}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	run.windows = newRateWindows()
	for run.dials < maxDials && time.Since(start) < budget {
		n := b.next()
		began := time.Now()
		d.Dial(n.Node, mlog.ConnDynamicDial, func(res *nodefinder.DialResult) {
			ch <- done{res, time.Now()}
		})
		r := <-ch
		run.windows.tick(1, r.at)
		run.latency.add(float64(r.at.Sub(began)) / 1e6)
		run.dials++
		run.outcomes[nodefinder.OutcomeClass(r.res)]++
		if run.dials == wireTraceDials {
			run.prefix = maps.Clone(run.outcomes)
		}
		if err := b.judge(n, r.res); err != nil {
			run.failures++
			rep.problem("%v", err)
		}
	}
	run.elapsed = time.Since(start)
	rep.count(run.dials, run.failures)
	return run
}

func runCrawlWire(cfg runConfig, rep *report) {
	nodes, traceDials := wireNodes, wireTraceDials
	if cfg.tiny {
		nodes, traceDials = 200, 40
	}
	var setup dist
	var b *wireBench
	for i := 0; i < wireSetups; i++ {
		if b != nil {
			b.w.CloseWire()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = newWireBench(cfg.seed, nodes); err != nil {
			rep.problem("set-up: %v", err)
			return
		}
		setup.add(time.Since(start).Seconds())
	}
	if cfg.trace {
		traceCrawlWire(cfg, rep, b, nodes, traceDials, &setup)
		return
	}

	run := b.dialLoop(rep, int(^uint(0)>>1), cfg.seconds)
	b.finish(rep)
	rep.add("setup_s", "s", setup.median(), setup.n(), fmt.Sprintf("median of %d builds of a %d-node WireFidelity world", setup.n(), nodes))
	rep.add("ops_per_s", "1/s", run.windows.median(), run.dials,
		fmt.Sprintf("dials_per_s: median of %d one-second windows, one dial in flight", run.windows.rates.n()))
	rep.addLatency("op_p50_ms", "op_p99_ms", "ms", chunk(run.latency.xs, 1000), "dial_p50_ms/dial_p99_ms: Dial to done callback")
	rep.add("peak_rss_mb", "MiB", peakRSSMiB(), 1, "VmHWM")
	rep.note("outcomes: %s", formatCounts(run.outcomes))
	if run.prefix != nil {
		rep.note("outcomes of the first %d dials: %s", wireTraceDials, formatCounts(run.prefix))
	}
}

// traceCrawlWire runs the same seeded dial sequence twice on fresh
// worlds: first through RealDialer untraced (the rate and allocation
// baseline), then through the same stage functions called one by one
// with spans, byte counts and pprof side labels. With one dial in
// flight both phases must see identical per-class outcome counts.
func traceCrawlWire(cfg runConfig, rep *report, b *wireBench, nodes, dials int, setup *dist) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	base := b.dialLoop(rep, dials, 600)
	runtime.ReadMemStats(&after)
	b.finish(rep)
	if base.dials > 0 {
		rep.add("wire.allocs_per_dial", "count", float64(after.Mallocs-before.Mallocs)/float64(base.dials), base.dials, "untraced RealDialer, both sides")
		rep.add("wire.alloc_bytes_per_dial", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(base.dials), base.dials, "untraced RealDialer, both sides")
	}

	prof, err := startCPUProfile()
	if err != nil {
		rep.problem("%v", err)
		return
	}
	labels("phase", "setup")
	start := time.Now()
	tb, err := newWireBench(cfg.seed, nodes)
	if err != nil {
		prof.stop(cfg.outDir, "discard") //nolint:errcheck
		rep.problem("set-up: %v", err)
		return
	}
	setup.add(time.Since(start).Seconds())
	rep.add("simnet.world_build_s", "s", setup.median(), setup.n(), "median WireFidelity world build")

	tr := newTracer(wireStages...)
	labels("phase", "run", "side", "crawler")
	var bytesIn, bytesOut int64
	outcomes := make(map[string]int)
	failures, fullChain := 0, 0
	began := time.Now()
	for i := 0; i < dials; i++ {
		n := tb.next()
		res, cc := tb.tracedDial(tr, uint64(i), n)
		outcomes[nodefinder.OutcomeClass(res)]++
		if cc != nil {
			bytesIn += cc.in
			bytesOut += cc.out
		}
		if res.DAOChecked {
			fullChain++
		}
		if err := tb.judge(n, res); err != nil {
			failures++
			rep.problem("traced: %v", err)
		}
	}
	elapsed := time.Since(began)
	labels()
	p, path, err := prof.stop(cfg.outDir, fmt.Sprintf("crawl-wire-seed%d", cfg.seed))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	rep.count(dials, failures)
	tb.finish(rep)

	for class, n := range base.outcomes {
		if outcomes[class] != n {
			rep.problem("outcome %s: %d traced, %d untraced", class, outcomes[class], n)
		}
	}
	for class, n := range outcomes {
		if _, ok := base.outcomes[class]; !ok {
			rep.problem("outcome %s: %d traced, 0 untraced", class, n)
		}
	}

	st := tr.stats()
	meanUS := func(name string) (float64, int) {
		s := st[name]
		if s.count == 0 {
			return 0, 0
		}
		return s.total.Seconds() * 1e6 / float64(s.count), s.count
	}
	for _, name := range []string{"simnet.dialwire", "rlpx.initiate", "devp2p.hello", "eth.status", "eth.dao", "devp2p.disconnect"} {
		v, n := meanUS(name)
		rep.add(name+"_us", "us", v, n, "mean span")
	}
	rep.add("rlpx.wait_us", "us", tb.rlpxWait.Seconds()*1e6/float64(max(st["rlpx.initiate"].count, 1)), st["rlpx.initiate"].count,
		"mean time blocked in Read during rlpx.initiate (the peer's accept)")
	rep.add("wire.dial_self_us", "us", st["dial"].self.Seconds()*1e6/float64(max(dials, 1)), dials, "dial span minus its stages")
	rep.add("wire.bytes_in", "B", float64(bytesIn)/float64(max(dials, 1)), dials, "per dial, crawler side")
	rep.add("wire.bytes_out", "B", float64(bytesOut)/float64(max(dials, 1)), dials, "per dial, crawler side")
	for _, class := range []string{"too-many-peers", "hello-no-eth", "eth-handshake"} {
		rep.add("wire.outcome."+class, "count", float64(outcomes[class]), dials, "traced dials")
	}
	rep.add("wire.full_chain_ratio", "ratio", float64(fullChain)/float64(max(dials, 1)), dials, "dials that ran HELLO, STATUS and the DAO check")
	rep.add("wire.dials", "count", float64(dials), dials, "per phase")
	tracedRate := float64(dials) / elapsed.Seconds()
	baseRate := float64(base.dials) / base.elapsed.Seconds()
	rep.add("trace.overhead", "ratio", tracedRate/baseRate, dials,
		fmt.Sprintf("traced %.1f ÷ untraced %.1f dials/s", tracedRate, baseRate))
	addCPUMetrics(rep, p)
	runKernels(rep, cfg.seed, cfg.tiny)

	spans, err := tr.write(cfg.outDir, fmt.Sprintf("crawl-wire-seed%d", cfg.seed))
	if err != nil {
		rep.problem("writing spans: %v", err)
	}
	rep.note("outcomes: %s (identical in both phases)", formatCounts(outcomes))
	rep.note("spans: %s; profile: %s", spans, path)
}

// tracedDial runs RealDialer's establishment chain stage by stage,
// with the same deadlines and the same result fields, so OutcomeClass
// and judge treat it exactly like a RealDialer result.
func (b *wireBench) tracedDial(tr *tracer, id uint64, n *simnet.SimNode) (*nodefinder.DialResult, *countConn) {
	root := tr.begin(spanDial, id)
	defer tr.end(root)
	res := &nodefinder.DialResult{Node: n.Node, Kind: mlog.ConnDynamicDial, Start: time.Now()}

	// The promoted peer's serving goroutine starts inside DialWire and
	// inherits the caller's labels: mark it before, restore after.
	s := tr.begin(spanDialWire, id)
	labels("phase", "run", "side", "peer")
	fd, err := b.w.DialWire("tcp", n.Node.TCPAddr().String(), nodefinder.DefaultDialTimeout)
	labels("phase", "run", "side", "crawler")
	tr.end(s)
	if err != nil {
		res.Err = fmt.Errorf("tcp dial: %w", err)
		return res, nil
	}
	cc := &countConn{Conn: fd}
	defer cc.Close()
	cc.SetDeadline(time.Now().Add(nodefinder.DefaultDialBudget)) //nolint:errcheck

	s = tr.begin(spanInitiate, id)
	waitBefore := cc.readWait
	conn, err := rlpx.InitiateTimeout(cc, b.key, n.Node.ID, 0)
	b.rlpxWait += cc.readWait - waitBefore
	tr.end(s)
	if err != nil {
		res.Err = fmt.Errorf("rlpx: %w", err)
		return res, cc
	}
	conn.SetTimeouts(0, 0)

	hello := b.hello
	hello.ID = enode.PubkeyID(&b.key.Pub)
	s = tr.begin(spanHello, id)
	theirs, err := devp2p.ExchangeHello(conn, &hello)
	tr.end(s)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			res.Disconnect = &de.Reason
		} else {
			res.Err = err
		}
		return res, cc
	}
	res.Hello = theirs
	if hello.Version >= devp2p.Version && theirs.Version >= devp2p.Version {
		conn.SetSnappy(true)
	}
	caps := devp2p.MatchCaps(hello.Caps, theirs.Caps, map[string]uint64{eth.ProtocolName: eth.ProtocolLength})
	var ethCap *devp2p.NegotiatedCap
	for i := range caps {
		if caps[i].Name == eth.ProtocolName {
			ethCap = &caps[i]
		}
	}
	if ethCap == nil {
		s = tr.begin(spanDisconnect, id)
		devp2p.SendDisconnect(conn, devp2p.DiscUselessPeer) //nolint:errcheck
		tr.end(s)
		return res, cc
	}

	status := b.status
	status.ProtocolVersion = uint32(ethCap.Version)
	s = tr.begin(spanStatus, id)
	err = eth.SendStatus(conn, ethCap.Offset, &status)
	var theirStatus *eth.Status
	if err == nil {
		theirStatus, err = eth.ReadStatus(conn, ethCap.Offset)
	}
	tr.end(s)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			res.Disconnect = &de.Reason
		} else {
			res.Err = err
		}
		return res, cc
	}
	res.Status = theirStatus

	if theirStatus.NetworkID == chain.MainnetNetworkID {
		s = tr.begin(spanDAO, id)
		support, err := eth.VerifyDAOFork(conn, ethCap.Offset)
		tr.end(s)
		if err == nil {
			res.DAOFork = support
			res.DAOChecked = true
		}
	}
	s = tr.begin(spanDisconnect, id)
	devp2p.SendDisconnect(conn, devp2p.DiscRequested) //nolint:errcheck
	tr.end(s)
	return res, cc
}

// countConn counts the bytes a dial moves and the time its reads
// spend blocked waiting for the peer. One goroutine uses it.
type countConn struct {
	net.Conn
	in, out  int64
	readWait time.Duration
}

func (c *countConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.readWait += time.Since(start)
	c.in += int64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

func formatCounts(m map[string]int) string {
	s := ""
	for _, k := range sortedKeys(m) {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", k, m[k])
	}
	return s
}

// Command perfbench is the repository's end-to-end benchmark. One
// binary runs three workloads, each chosen to load different layers
// of the NodeFinder reproduction:
//
//	crawl-wire    real RLPx → DEVp2p → eth dials into a WireFidelity
//	              simnet world, one dial in flight (crypto, framing,
//	              codecs, the promoted simulated peer)
//	crawl-sim     the 100k-node analytic world crawled to 99% census
//	              by the sharded Finder (simclock, scheduler, analytic
//	              dialer and discovery, mlog)
//	census-serve  a census.Daemon behind a real http.Server on
//	              127.0.0.1, two keep-alive pollers, snapshot
//	              publishes triggered by the served-request count
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload crawl-wire --seed 42 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// With --trace 0 the run measures end-to-end metrics with no
// instrumentation beyond the benchmark's own timers. With --trace 1
// it reports per-layer metrics instead: spans around every call into
// a layer, a CPU profile split by package and by pprof side labels,
// a crypto kernel pass, and trace.overhead (traced ÷ untraced rate).
// Spans and the profile are written under --out.
//
// Every run checks the workload's outputs; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}, and
// the exit code is non-zero when a check failed. perfbench/design.json
// records why each workload exists and which end-to-end metric each
// layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workload is one benchmark input set. run measures it for the given
// number of seconds and appends metrics and check results to rep.
type workload struct {
	name string
	run  func(cfg runConfig, rep *report)
}

var workloads = []workload{
	{"crawl-wire", runCrawlWire},
	{"crawl-sim", runCrawlSim},
	{"census-serve", runCensusServe},
}

// runConfig is what one invocation passes to a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test sizes: seconds of work, not minutes
	outDir  string // span logs and CPU profiles (traced runs only)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: crawl-wire, crawl-sim or census-serve")
		seed    = flag.Int64("seed", 42, "input seed; the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		smoke   = flag.Bool("smoke", false, "run every workload at tiny size, traced and untraced, and check every metric named in BENCHMARK.json is emitted")
		outDir  = flag.String("out", filepath.Join("perfbench", "out"), "directory for span logs and CPU profiles")
	)
	flag.Parse()

	// Every run must emit exactly the metrics the definition lists.
	want, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *smoke {
		os.Exit(runSmoke(want, *outDir))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	rep := execute(*wl, cfg, want)
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// execute runs one workload and checks that it emitted exactly the
// metric names the benchmark definition lists for its mode.
func execute(wl workload, cfg runConfig, want *spec) *report {
	rep := newReport(wl.name, cfg)
	wl.run(cfg, rep)
	if cfg.trace {
		rep.fillAbsent(want.perLayer)
		rep.checkNames(want.perLayer)
	} else {
		rep.checkNames(want.endToEnd)
	}
	return rep
}

// runSmoke runs every workload at tiny size in both modes. The
// numbers are meaningless; the point is that every run completes,
// passes its output checks and emits every metric name, and that
// every per-layer metric is measured by at least one workload rather
// than only filled in as not exercised.
func runSmoke(want *spec, outDir string) int {
	status := 0
	measured := make(map[string]bool)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 42, seconds: 1, trace: traced, tiny: true, outDir: outDir}
			rep := execute(wl, cfg, want)
			rep.print(os.Stdout)
			if !rep.correct() {
				status = 1
			}
			for _, m := range rep.metrics {
				measured[m.name] = measured[m.name] || !m.filled
			}
		}
	}
	for _, m := range want.perLayer {
		if !measured[m.Name] {
			fmt.Printf("smoke: per-layer metric %s is measured by no workload\n", m.Name)
			status = 1
		}
	}
	if status == 0 {
		fmt.Println("smoke: every workload passed its checks and emitted every metric")
	}
	return status
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. samples is how many observations it
// summarises; note says what they are, for the human-readable lines.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	note    string
	filled  bool // added by fillAbsent, not measured
}

// report collects one run's metrics and output-check results.
type report struct {
	workload  string
	cfg       runConfig
	metrics   []metric
	attempted int
	failed    int
	problems  []string
	info      []string
}

func newReport(workload string, cfg runConfig) *report {
	return &report{workload: workload, cfg: cfg}
}

func (r *report) add(name, unit string, value float64, samples int, note string) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples, note, false})
}

// count records outcomes of checked operations.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// problem records a failed output check. The first few are printed;
// all of them make the run incorrect.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds a human-readable line that is not a metric.
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// fillAbsent reports every wanted metric the workload did not emit
// as 0: a layer the workload does not exercise does no work there.
func (r *report) fillAbsent(want []specMetric) {
	have := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		have[m.name] = true
	}
	for _, w := range want {
		if !have[w.Name] {
			r.metrics = append(r.metrics, metric{w.Name, w.Unit, 0, 0, "not exercised by " + r.workload, true})
		}
	}
}

// checkNames makes the run incorrect unless it emitted exactly the
// wanted metrics, each once and in its defined unit.
func (r *report) checkNames(want []specMetric) {
	unit := make(map[string]string, len(want))
	for _, w := range want {
		unit[w.Name] = w.Unit
	}
	seen := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		switch u, ok := unit[m.name]; {
		case !ok:
			r.problem("metric %s is not in the benchmark definition", m.name)
		case seen[m.name]:
			r.problem("metric %s emitted twice", m.name)
		case u != m.unit:
			r.problem("metric %s in unit %s, defined in %s", m.name, m.unit, u)
		}
		seen[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.problem("metric %s is %v", m.name, m.value)
		}
	}
	for _, w := range want {
		if !seen[w.Name] {
			r.problem("metric %s was not emitted", w.Name)
		}
	}
}

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(w io.Writer) {
	mode := "end-to-end"
	if r.cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed=%d seconds=%g %s\n", r.workload, r.cfg.seed, r.cfg.seconds, mode)
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.samples)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, line)
	}
	for _, s := range r.info {
		fmt.Fprintln(w, "  "+s)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  error_rate %g (%d failed of %d attempted)\n", rate, r.failed, r.attempted)
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(w, "  CHECK FAILED: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(w, "  CHECK FAILED: "+p)
	}

	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := r.failed
	if failed == 0 && len(r.problems) > 0 {
		failed = 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, failed, metrics})
	if err != nil {
		// Only NaN or Inf can fail to marshal, and checkNames has
		// already reported those; print a result that says so.
		out = []byte(fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, attempted, failed))
	}
	fmt.Fprintln(w, string(out))
}

// spec is the part of BENCHMARK.json the binary checks itself
// against: the metric names of each mode, in order, with their units.
type spec struct {
	endToEnd []specMetric
	perLayer []specMetric
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var raw struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &raw); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	if len(raw.EndToEnd) == 0 || len(raw.PerLayer) == 0 {
		return nil, fmt.Errorf("benchmark definition %s lists no metrics", path)
	}
	return &spec{endToEnd: raw.EndToEnd, perLayer: raw.PerLayer}, nil
}

// dist is a set of raw samples. Percentiles are exact order
// statistics (nearest rank), never histogram bucket bounds.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *dist) n() int { return len(d.xs) }

// quantile returns the nearest-rank q-quantile and how many samples
// lie above its rank.
func (d *dist) quantile(q float64) (v float64, beyond int) {
	if len(d.xs) == 0 {
		return 0, 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	rank := int(math.Ceil(q*float64(len(d.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return d.xs[rank], len(d.xs) - 1 - rank
}

func (d *dist) median() float64 { v, _ := d.quantile(0.5); return v }

// addLatency reports the median of all samples and the median over
// chunks of each chunk's p99. A tail is what a few stalls of the host
// move most; taken per chunk, one bad stretch of a run moves one
// chunk's p99, not the reported one. Each chunk needs at least ten
// samples beyond its p99 to mean anything; with fewer the run is
// reported incorrect, except in smoke runs, whose sizes are too small
// by design.
func (r *report) addLatency(p50Name, p99Name, unit string, chunks []dist, what string) {
	var all, p99s dist
	minBeyond := -1
	for i := range chunks {
		all.xs = append(all.xs, chunks[i].xs...)
		v, beyond := chunks[i].quantile(0.99)
		p99s.add(v)
		if minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	r.add(p50Name, unit, all.median(), all.n(), what)
	r.add(p99Name, unit, p99s.median(), all.n(),
		fmt.Sprintf("%s; median p99 of %d chunks, each ≥%d beyond its p99", what, p99s.n(), minBeyond))
	if minBeyond < 10 && !r.cfg.tiny {
		r.problem("%s: a chunk has only %d samples beyond p99 (need 10); run longer", p99Name, minBeyond)
	}
}

// chunk splits samples, in the order they were taken, into chunks of
// size each; a short remainder joins the last chunk.
func chunk(xs []float64, size int) []dist {
	var out []dist
	for len(xs) >= 2*size {
		out = append(out, dist{xs: xs[:size:size]})
		xs = xs[size:]
	}
	return append(out, dist{xs: xs})
}

// rateWindows turns a run into operation rates over windows of about
// a second. Reporting their median, a stall that hits one window
// moves the result less than it moves the run's mean.
type rateWindows struct {
	rates dist
	start time.Time
	ops   int
}

func newRateWindows() *rateWindows { return &rateWindows{start: time.Now()} }

// tick counts n operations done by now and closes the window once a
// second has passed.
func (w *rateWindows) tick(n int, now time.Time) {
	w.ops += n
	if el := now.Sub(w.start); el >= time.Second {
		w.rates.add(float64(w.ops) / el.Seconds())
		w.start, w.ops = now, 0
	}
}

func (w *rateWindows) median() float64 { return w.rates.median() }

// peakRSSMiB reads VmHWM, the process's high-water resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

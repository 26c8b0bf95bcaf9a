package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/stats"
)

// config is one invocation's settings.  full selects the sizes the
// benchmark is defined at; the self-test runs every workload with
// full=false at tiny sizes.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool
	dir     string
	full    bool
	// corrupt flips one bit of every reference digest after set-up, so
	// the self-test can prove the output checks catch a wrong stream.
	corrupt bool
}

// workloads maps a -workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"coexpr":  runCoexpr,
	"spill":   runSpill,
	"cliqued": runCliqued,
}

// minPasses is the least number of measured passes a run makes, even
// when one pass outlasts the measured time.
const minPasses = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics BENCHMARK.json declares, in
// its order; every workload reports every one of them (a layer the
// workload bypasses reports 0).  TestCatalogMatchesBenchmarkJSON keeps
// the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"first_ms", "ms"},
	{"peak_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"microarray.threshold_s", "s"},
	{"microarray.graph_s", "s"},
	{"microarray.edges", "count"},
	{"maxclique.s", "s"},
	{"enum.s", "s"},
	{"enum.candidates", "count"},
	{"enum.maximal", "count"},
	{"enum.yield", "ratio"},
	{"enum.ns_per_candidate", "ns"},
	{"enum.busy_ratio", "ratio"},
	{"enum.transfers", "count"},
	{"enum.level_max_s", "s"},
	{"paraclique.s", "s"},
	{"paraclique.count", "count"},
	{"simarch.ns_per_unit", "ns"},
	{"simarch.unit_spread", "ratio"},
	{"core.s", "s"},
	{"hybrid.s", "s"},
	{"hybrid.spill_level", "level"},
	{"hybrid.peak_over_budget", "ratio"},
	{"ooc.s", "s"},
	{"ooc.overhead_x", "x"},
	{"ooc.write_mb", "MB"},
	{"ooc.read_mb", "MB"},
	{"ooc.compress_ratio", "x"},
	{"ooc.peak_level_mb", "MB"},
	{"ooc.mb_per_s", "MB/s"},
	{"dist.s", "s"},
	{"dist.releases", "count"},
	{"service.req_per_s", "1/s"},
	{"service.hot_p50_ms", "ms"},
	{"service.hot_p90_ms", "ms"},
	{"service.cold_ttfb_p50_ms", "ms"},
	{"service.cold_p50_ms", "ms"},
	{"service.cold_p90_ms", "ms"},
	{"service.load_ms", "ms"},
	{"service.delete_ms", "ms"},
	{"service.maxclique_ms", "ms"},
	{"service.stream_kb", "KB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.shed", "count"},
	{"service.residual_bytes", "bytes"},
	{"self.bench_s", "s"},
	{"self.microarray_s", "s"},
	{"self.maxclique_s", "s"},
	{"self.enum_s", "s"},
	{"self.paraclique_s", "s"},
	{"self.hybrid_s", "s"},
	{"self.ooc_s", "s"},
	{"self.dist_s", "s"},
	{"self.service_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// layers are the span prefixes self time is reported for.
var layers = []string{"bench", "microarray", "maxclique", "enum", "paraclique", "hybrid", "ooc", "dist", "service"}

// metric is one measured value and the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// result is what a workload run measured.
type result struct {
	attempted, failed int64
	failures          []string // the first few check failures, for the report
	notes             []string // context printed with the report
	values            map[string]metric
	tr                *tracer
}

func newResult() *result { return &result{values: make(map[string]metric)} }

func (r *result) set(name string, v float64, n int) { r.values[name] = metric{v, n} }

// op counts one attempted operation; err, when non-nil, is a failed
// operation or a failed output check.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// note adds a line of context to the report.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failure without a new attempt (a check made after the
// measured phase, on an operation already counted).
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// zeroLayers sets every per-layer metric the workload did not measure
// to 0: the layer did no work in this workload.
func (r *result) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = metric{}
		}
	}
}

// print writes a readable report (every metric with its sample count)
// and then the one-line JSON result, always the last line.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]jsonMetric)}
	for _, d := range defs {
		m, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		out.Metrics[d.name] = jsonMetric{m.value, d.unit}
		fmt.Fprintf(w, "%-26s %14.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "check failed: %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ---- measurement helpers -----------------------------------------------

// measureSetup runs setup reps times and returns the median duration
// in seconds; the state the last call left behind is the one the run
// measures against.  Each repetition starts from a collected heap.
// teardown, when not nil, undoes a repetition's state before the next
// one starts, off the clock, so every repetition times the same work.
func measureSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		debug.FreeOSMemory()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// timedPasses calls pass until d has elapsed and at least minPasses
// passes have run.  Each pass starts from a collected heap whose free
// memory went back to the OS, as in a fresh process: garbage one pass
// left does not land on the next one's clock, and the process's peak
// resident set is the largest single pass's.  Passes time themselves.
func timedPasses(d time.Duration, pass func(i int)) {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < d; i++ {
		debug.FreeOSMemory()
		pass(i)
	}
}

// quantile is stats.Quantile, except that it is 0 for an empty slice
// (a run in which no sample succeeded).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// ratio is a / b, or 0 when b is 0 (no successful sample to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetRSSPeak collects the heap and resets the process's peak resident
// set to its current one (writing 5 to /proc/self/clear_refs), so that
// rssPeakMB afterwards reports the measured phase and not set-up, whose
// in-core references can outgrow the code under test.
func resetRSSPeak() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// rssPeakMB is the process's peak resident set since the last
// resetRSSPeak (VmHWM in /proc/self/status, in kB), in MB.
func rssPeakMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ---- output digests ----------------------------------------------------

// digest is a Reporter folding the ordered clique stream into an FNV-1a
// hash, so two backends' streams compare without holding either.  It
// also records when the first clique arrived.
type digest struct {
	h     hash.Hash64
	n     int64
	first time.Time
	buf   [4]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// Emit implements repro.Reporter.
func (d *digest) Emit(c repro.Clique) {
	if d.n == 0 {
		d.first = time.Now()
	}
	d.n++
	d.word(len(c))
	for _, v := range c {
		d.word(v)
	}
}

func (d *digest) word(v int) {
	binary.LittleEndian.PutUint32(d.buf[:], uint32(v))
	d.h.Write(d.buf[:])
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

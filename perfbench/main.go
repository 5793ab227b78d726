// Command perfbench is rentplan's end-to-end benchmark. It drives four
// seeded workloads (BENCHMARK.json lists all but nested, which is held;
// see README.md) through public entry points only — the rentpland binary
// over HTTP for serve-dp and serve-milp, fleet.Run for fleet, and
// core.SolveSRRPNestedLShaped for nested — checks every answer against an
// untimed reference, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a serial in-process replay). See README.md for
// the workloads, the metrics and what each one is predicted to move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-dp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer is wrong or the workload could not run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	daemon  string // path to the rentpland binary (serve workloads)
	out     string // directory for span dumps
}

// metric is one reported figure. Base, when set, names the denominator of
// a ratio or the sample a statistic was taken over, e.g. "of 4210 lookups".
type metric struct {
	Name  string
	Value float64
	Unit  string
	Base  string
}

// endToEnd lists the end-to-end metrics every untraced run prints, in
// order; each workload defines every one of them (README.md).
var endToEnd = []string{
	"setup_s", "plan_p50_ms", "throughput_per_s",
	"answered_share", "full_rung_share", "peak_rss_mb",
}

// perLayer lists the per-layer metrics every traced run prints, in order.
// A layer a workload does not exercise reads 0.
var perLayer = []string{
	"serve.self_us", "serve.server_p50_ms", "serve.allocs_per_req",
	"serve.tree_cache_hit_ratio", "serve.plan_reuse_ratio",
	"serve.warm_root_ratio.cache", "serve.warm_root_ratio.tenant",
	"serve.rejected", "serve.errors", "serve.tenants", "serve.cached_trees",
	"scenario.build_us", "scenario.builds", "scenario.vertices_p50",
	"core.step_us", "core.milp_build_us",
	"core.rung.full", "core.rung.incumbent", "core.rung.dp", "core.rung.on-demand",
	"lotsize.tree_dp_us",
	"mip.solve_ms_p50", "mip.solve_ms_p99", "mip.nodes_per_solve", "mip.iters_per_node",
	"mip.allocs_per_solve", "mip.warm_fallback_share", "mip.warm_dual_share",
	"lp.root_cold_ms", "lp.root_warm_ms", "lp.refactor_per_node", "lp.eta_per_node",
	"lp.candidate_hit_ratio", "lp.cold_iters_per_cold_node", "lp.warm_iters_per_warm_node",
	"benders.vertex_solves", "benders.iterations", "benders.cuts", "benders.cuts_deduped",
	"benders.cuts_evicted", "benders.warm_share", "benders.memo_hit_ratio",
	"fleet.epoch_ms_p50", "fleet.epoch_ms_max", "fleet.wake_fraction", "fleet.shard_wake_imbalance",
	"market.epoch_feed_ms",
	"loadgen.plan_p99_ms", "loadgen.max_rate_rps", "loadgen.late_p99_ms",
}

// layerUnit gives the unit of every per-layer metric by its suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_rps"):
		return "req/s"
	case strings.Contains(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_fraction"), strings.HasSuffix(name, "imbalance"):
		return "ratio"
	}
	return "count"
}

// outcome is a workload's result.
type outcome struct {
	attempted, failed int
	wrong             []string // answer-check failures, one line each
	metrics           map[string]metric
	provenance        map[string]interface{}
	notes             []string // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, provenance: map[string]interface{}{}}
}

// add records an end-to-end metric as measured; report refuses to print
// one that is not a positive finite number.
func (o *outcome) add(name string, v float64, unit, base string) {
	o.metrics[name] = metric{name, v, unit, base}
}

// layer records a per-layer metric with the unit its name implies. An
// undefined value (an empty sample) reads 0.
func (o *outcome) layer(name string, v float64, base string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.add(name, v, layerUnit(name), base)
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-dp":   func(c runConfig) (*outcome, error) { return runServe(c, dpShape(c.smoke)) },
	"serve-milp": func(c runConfig) (*outcome, error) { return runServe(c, milpShape(c.smoke)) },
	"fleet":      runFleet,
	"nested":     runNested,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-dp, serve-milp, fleet or nested")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced in-process replay")
		daemon   = flag.String("daemon", "", "path to the rentpland binary (serve workloads)")
		out      = flag.String("out", ".bench_build", "directory for span dumps")
		smoke    = flag.Bool("smoke", false, "seconds-long run of the workload with every answer check on")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown -workload %q (want serve-dp, serve-milp, fleet or nested)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, daemon: *daemon, out: *out}
	o, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	report(*workload, cfg, o)
	if len(o.wrong) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// report prints the human-readable lines, the provenance record and, last,
// the result object.
func report(workload string, cfg runConfig, o *outcome) {
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	var list []metric
	for _, n := range names {
		m, ok := o.metrics[n]
		switch {
		case !ok && !cfg.trace:
			fatalf("%s: end-to-end metric %s not measured", workload, n)
		case !ok:
			m = metric{n, 0, layerUnit(n), "(layer not exercised by " + workload + ")"}
		case !cfg.trace && !(m.Value > 0 && !math.IsInf(m.Value, 1)):
			// Every end-to-end metric of a working run is a positive
			// number: a p50 that failures made infinite, or no answer at
			// all, fails the run instead of reading as a perfect figure.
			for _, s := range o.wrong {
				fmt.Fprintln(os.Stderr, "WRONG", s)
			}
			fatalf("%s: end-to-end metric %s = %v %s: the run failed", workload, n, m.Value, m.Base)
		}
		list = append(list, m)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range list {
		line := fmt.Sprintf("%-32s %.6g %s", m.Name, m.Value, m.Unit)
		if m.Base != "" {
			line += " " + m.Base
		}
		fmt.Fprintln(w, line)
	}
	for _, s := range o.wrong {
		fmt.Fprintln(w, "WRONG", s)
	}
	prov := map[string]interface{}{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"smoke":      cfg.smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	for k, v := range o.provenance {
		prov[k] = v
	}
	pj, _ := json.Marshal(map[string]interface{}{"provenance": prov})
	fmt.Fprintln(w, string(pj))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(list))
	for _, m := range list {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.wrong) == 0, o.attempted, o.failed, ms})
	fmt.Fprintln(w, string(res))
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of a copy of xs.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relErr is the relative error |a−b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailQuantile is the percentile a tail statistic over n samples reports:
// p99 from 1000 samples up, below that the highest percentile with ten
// samples beyond it.
func tailQuantile(n int) float64 {
	if n >= 1000 || n == 0 {
		return 0.99
	}
	return math.Max(0.5, 1-10/float64(n))
}

// tail returns the tail statistic of xs (which it sorts) and a base string
// naming the percentile and the sample count.
func tail(xs []float64, what string) (float64, string) {
	q := tailQuantile(len(xs))
	return quantile(xs, q), fmt.Sprintf("(p%.4g of %d %s)", 100*q, len(xs), what)
}

// medianSetup runs setup k times and returns the median wall time in
// seconds together with the result of the last call. A garbage collection
// before each call keeps an earlier call's garbage out of the next one's
// time.
func medianSetup[T any](k int, setup func() (T, error)) (float64, T, error) {
	var last T
	var times []float64
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return median(times), last, nil
}

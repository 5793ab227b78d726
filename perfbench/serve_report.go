package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"rentplan/internal/core"
)

// report checks every answer and turns the run into the workload's
// metrics: the end-to-end ones, or with tracing the per-layer ones.
func (r *serveRun) report(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	o.provenance["daemon_flags"] = strings.Join(append(append([]string(nil), r.daemonArgs...), "-budget", daemonBudget.String()), " ")
	o.provenance["tenant_lifetimes"] = r.w.tenants

	all := append(append([]*job(nil), r.warm...), r.timed...)
	t0 := time.Now()
	wrong := checkAnswers(r.sh, all)
	o.note("checks: %d answers matched against references in %.2f s", len(all), time.Since(t0).Seconds())
	answered, full := 0, 0
	for _, j := range all {
		if msg, bad := wrong[j.seq]; bad {
			o.wrong = append(o.wrong, msg)
			j.code = -1 // a wrong answer is a miss for the ladder too
		}
		if !j.ok() {
			o.failed++
			continue
		}
		answered++
		if j.ans.Rung == core.RungFull.String() {
			full++
		}
	}
	o.attempted = len(all)
	if len(o.wrong) > 0 {
		r.resummarise()
	}

	var p50s []float64
	o.note("%-10s %9s %7s %6s %9s %9s %9s %9s %s", "phase", "rate", "sent", "fail", "p50_ms", "p99_ms", "late_p99", "growth", "pass")
	for i, ph := range r.lows {
		p50s = append(p50s, ph.p50)
		o.note("%-10s %9.1f %7d %6d %9.3f %9.3f %9.3f %9.3f %v   saturation %.1f req/s", fmt.Sprintf("low%d", i+1),
			ph.rate, ph.n, ph.fails, ph.p50, ph.p99, ph.lateP99, ph.growth, ph.pass, r.sats[i])
	}
	for i, ph := range r.rungs {
		o.note("%-10s %9.1f %7d %6d %9.3f %9.3f %9.3f %9.3f %v", fmt.Sprintf("rung%d", i+1),
			ph.rate, ph.n, ph.fails, ph.p50, ph.p99, ph.lateP99, ph.growth, ph.pass)
	}
	if cfg.trace {
		return o, r.traceLayers(cfg, o)
	}
	blocks := fmt.Sprintf("%d blocks", len(r.lows))
	o.add("setup_s", r.setupS, "s", fmt.Sprintf("(median of %d launches to a healthy /v1/healthz)", daemonLaunches))
	o.add("plan_p50_ms", median(p50s), "ms", fmt.Sprintf("(median over %s of the p50 of %d requests at %.0f req/s)", blocks, r.sh.lowCount, r.sh.lowRate))
	o.add("throughput_per_s", median(r.sats), "1/s", fmt.Sprintf("(saturation req/s over %d connections, median over %s of %d requests)", runtime.NumCPU(), blocks, r.sh.satCount))
	o.add("answered_share", ratio(float64(answered), float64(o.attempted)), "ratio", fmt.Sprintf("(of %d requests; failed_share = 1 - this)", o.attempted))
	o.add("full_rung_share", ratio(float64(full), float64(answered)), "ratio", fmt.Sprintf("(of %d answers; degraded_share = 1 - this)", answered))
	o.add("peak_rss_mb", r.rssMiB, "MiB", "(rentpland VmHWM)")
	return o, nil
}

// resummarise re-evaluates the low segments and every rung after the
// answer checks marked wrong answers as misses, and takes max_rate_rps
// from the highest rung that still passes.
func (r *serveRun) resummarise() {
	byPhase := map[int][]*job{}
	for _, j := range r.timed {
		byPhase[j.phase] = append(byPhase[j.phase], j)
	}
	achieved := r.low.achieved // the pooled segments run on separate clocks
	r.low = summarise(byPhase[1], r.sh.lowRate)
	r.low.achieved = achieved
	best := r.low
	for i := range r.rungs {
		r.rungs[i] = summarise(byPhase[2+i], r.rungs[i].rate)
		if r.rungs[i].pass && r.low.pass && r.rungs[i].rate > best.rate {
			best = r.rungs[i]
		}
	}
	r.maxRate = best.achieved
}

// serverP50MS estimates the daemon's own median latency from the bucket
// deltas of the rentpland_request_seconds histogram, interpolating inside
// the containing bucket like Prometheus's histogram_quantile.
func serverP50MS(d promText) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	total := 0.0
	const name = "rentpland_request_seconds_bucket"
	byLE := map[float64]float64{}
	for k, v := range d {
		if !strings.HasPrefix(k, name+"{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		s := k[i+4:]
		s = s[:strings.IndexByte(s, '"')]
		le := math.Inf(1)
		if s != "+Inf" {
			fmt.Sscan(s, &le)
		}
		byLE[le] += v // summed over the model label
	}
	for le, c := range byLE {
		bs = append(bs, bucket{le, c})
		if math.IsInf(le, 1) {
			total = c
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := 0.5 * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo * 1000
			}
			return (lo + (b.le-lo)*(rank-prev)/(b.cum-prev)) * 1000
		}
		lo, prev = b.le, b.cum
	}
	return lo * 1000
}

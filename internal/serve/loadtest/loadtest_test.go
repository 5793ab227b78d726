package loadtest

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestServeLoadSmoke runs a small fleet end to end; under `make race` this
// is the -race spot-run of the whole daemon stack demanded by the bench
// acceptance (pool, cache, tenants, metrics all exercised concurrently).
func TestServeLoadSmoke(t *testing.T) {
	rep, err := Run(Config{
		Tenants:        8,
		StepsPerTenant: 3,
		Cohorts:        2,
		Workers:        4,
		Queue:          64,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantReqs := 8 * (1 + 3) // one srrp warm-up + three steps per tenant
	if rep.OK < wantReqs {
		t.Fatalf("only %d/%d requests succeeded (%d rejected, %d errors)",
			rep.OK, wantReqs, rep.Rejected, rep.Errors)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d requests errored", rep.Errors)
	}
	if rep.CacheHits == 0 {
		t.Fatal("no tree-cache hits across cohort-sharing tenants")
	}
	if rep.PlanReuse == 0 {
		t.Fatal("no plan reuse across rolling steps")
	}
	if rep.P99MS < rep.P50MS {
		t.Fatalf("p99 %.2fms below p50 %.2fms", rep.P99MS, rep.P50MS)
	}
}

// TestServeLoadCapacitated exercises the MILP path and shared root bases.
// The daemon reports a warm root only for a solve that ran branch-and-bound,
// so a warm root also shows that the capacitated joins reached the MILP.
func TestServeLoadCapacitated(t *testing.T) {
	rep, err := Run(Config{
		Tenants:        6,
		StepsPerTenant: 1,
		Cohorts:        2,
		Workers:        4,
		Queue:          64,
		Capacitated:    true,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d requests errored", rep.Errors)
	}
	if rep.WarmRoots == 0 {
		t.Fatal("no warm-started roots across tenants sharing a capacitated instance")
	}
}

// BenchmarkServeLoad is the headline load run behind `make bench-serve`:
// ≥1000 concurrent tenant plan requests through the daemon, reporting
// p50/p99 latency and sustained plans/sec. When BENCH_SERVE_OUT is set the
// report is written there (the Makefile points it at BENCH_serve.json).
func BenchmarkServeLoad(b *testing.B) {
	cfg := Config{
		Tenants:        250,
		StepsPerTenant: 4, // 250 × (1 warm-up + 4 steps) = 1250 requests
		Cohorts:        5,
		Workers:        runtime.GOMAXPROCS(0),
		Queue:          1 << 14, // admit the whole fleet; rejection is tested elsewhere
		Budget:         250 * time.Millisecond,
		Seed:           1,
	}
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d requests errored", rep.Errors)
		}
		if want := cfg.Tenants * (1 + cfg.StepsPerTenant); rep.OK < 1000 || rep.OK+rep.Rejected < want {
			b.Fatalf("completed %d requests (want >= 1000; %d rejected)", rep.OK, rep.Rejected)
		}
	}
	b.ReportMetric(rep.PlansPerSec, "plans/sec")
	b.ReportMetric(rep.P50MS, "p50-ms")
	b.ReportMetric(rep.P99MS, "p99-ms")
	b.ReportMetric(float64(rep.CacheHits), "cache-hits")
	b.ReportMetric(float64(rep.PlanReuse), "plan-reuse")

	if out := os.Getenv("BENCH_SERVE_OUT"); out != "" {
		doc := map[string]interface{}{
			"benchmark": "BenchmarkServeLoad",
			"goos":      runtime.GOOS,
			"goarch":    runtime.GOARCH,
			"cpus":      runtime.GOMAXPROCS(0),
			"config": map[string]interface{}{
				"tenants":          cfg.Tenants,
				"steps_per_tenant": cfg.StepsPerTenant,
				"cohorts":          cfg.Cohorts,
				"workers":          cfg.Workers,
				"budget_ms":        cfg.Budget.Milliseconds(),
			},
			"results": rep,
			"notes": "In-process load run of the rentpland daemon: each synthetic tenant issues one srrp " +
				"warm-up against its cohort's shared market state (tree-cache reuse) followed by rolling " +
				"step re-plans on stride 2 (tenant plan reuse). Latency percentiles are exact " +
				"(nearest-rank over all per-request wall times); plans/sec is completed plans over the " +
				"whole-fleet wall clock. The race acceptance is covered by TestServeLoadSmoke under " +
				"`make race`, which runs this harness with -race enabled.",
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s", out)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/serve"
	"rentplan/internal/stats"
)

// serveShape sizes one daemon workload: the tenant population, the request
// shape and the timed blocks. Rates are requests per second.
type serveShape struct {
	name       string
	milp       bool    // every tenant carries a capacity bottleneck
	stages     []int   // per-tenant lookahead, drawn uniformly
	active     int     // tenant slots live at once
	tightShare float64 // milp: share of tenants whose root-stage capacity is tight
	warmRate   float64 // rate of the untimed warm-up
	lowRate    float64 // plan_p50_ms is measured at this open-loop rate
	lowCount   int     // requests per low-rate segment
	satCount   int     // requests per saturation segment
	maxCoarse  int     // coarse ladder rungs at most
}

// The request shape both serve workloads share: trees capped at three
// branches, eight market cohorts, tenants re-joining after nine requests.
const (
	maxBranch = 3
	cohorts   = 8
	life      = 9 // requests per tenant: one srrp join, then life-1 steps
)

// The rate ladder of traced runs (README.md): the rate grid factor, grid
// points per coarse step, rung lengths, and a passing rung's p99 and
// lateness-growth limits.
const (
	ladderGrowth = 1.1
	ladderCoarse = 4
	coarseSec    = 0.75
	fineSec      = 1.8
	limitMS      = 200.0
	growthMS     = 50.0
)

func dpShape(smoke bool) serveShape {
	sh := serveShape{
		name: "serve-dp", stages: []int{3, 4, 5}, active: 1500,
		warmRate: 3000, lowRate: 500, lowCount: 600, satCount: 8000, maxCoarse: 8,
	}
	if smoke {
		sh.active, sh.warmRate, sh.lowRate, sh.lowCount, sh.satCount, sh.maxCoarse = 60, 600, 300, 150, 300, 1
	}
	return sh
}

func milpShape(smoke bool) serveShape {
	sh := serveShape{
		name: "serve-milp", milp: true, stages: []int{3}, active: 480, tightShare: 0.4,
		warmRate: 1000, lowRate: 200, lowCount: 400, satCount: 4800, maxCoarse: 8,
	}
	if smoke {
		sh.active, sh.warmRate, sh.lowRate, sh.lowCount, sh.satCount, sh.maxCoarse = 30, 100, 60, 100, 200, 1
	}
	return sh
}

// daemonBudget is rentpland's default per-request solve budget, which the
// benchmark leaves in force.
const daemonBudget = 250 * time.Millisecond

// daemonLaunches is how many times setup_s launches the daemon.
const daemonLaunches = 9

// cohort is one shared market: every tenant of a cohort sees the same
// hourly spot price, base distribution and bid, so their srrp joins share
// tree-cache entries.
type cohort struct {
	id     int
	class  market.VMClass
	prices []float64 // market price per round (one round = one hour)
	base   stats.Discrete
	bid    float64
	joins  map[int]joinInstance // the cohort-shared srrp instance, by stages
}

type joinInstance struct{ demand, capacity []float64 }

func (c *cohort) price(round int) float64 { return c.prices[round%len(c.prices)] }

// tenant is one synthetic application. inv is the inventory implied by its
// last answer; only the sender holding the tenant's current request touches
// it, and requests of one tenant are chained by job.prev.
type tenant struct {
	name     string
	c        *cohort
	stages   int
	demand   []float64 // step horizon: life-1 slots plus the lookahead
	capacity []float64 // per tree stage (milp only)
	inv      float64
	last     *job
}

// job is one scheduled request and, once done, its response.
type job struct {
	seq   int
	phase int
	due   time.Duration // offset of the scheduled send from phase start
	t     *tenant
	srrp  bool
	slot  int // step: tenant slot
	round int // market hour
	prev  *job
	done  chan struct{}

	inv  float64 // step: inventory sent
	sent time.Duration
	end  time.Duration
	code int // 0 = transport error
	ans  answer
}

// answer is the part of serve.PlanResponse the benchmark checks.
type answer struct {
	Cost      float64  `json:"cost"`
	Generate  *float64 `json:"generate"`
	Rung      string   `json:"rung"`
	CacheHit  bool     `json:"cacheHit"`
	WarmRoot  bool     `json:"warmRoot"`
	PlanReuse bool     `json:"planReuse"`
}

func (j *job) ok() bool { return j.code == http.StatusOK }

// world generates the seeded request sequence.
type world struct {
	sh      serveShape
	seed    int64
	cohorts []*cohort
	live    []*tenant
	round   int
	slot    int
	seq     int
	tenants int
}

func newWorld(sh serveShape, seed int64) (*world, error) {
	w := &world{sh: sh, seed: seed, live: make([]*tenant, sh.active)}
	const historyHours, marketDays = 168, 60
	for c := 0; c < cohorts; c++ {
		class := market.C1Medium
		gen, err := market.NewGenerator(class, seed*1009+int64(c))
		if err != nil {
			return nil, err
		}
		hourly, err := gen.Trace(marketDays).Hourly(0, marketDays*24)
		if err != nil {
			return nil, err
		}
		hist := append([]float64(nil), hourly[:historyHours]...)
		co := &cohort{
			id: c, class: class, prices: hourly[historyHours:],
			base:  stats.NewDiscreteFromSamples(hist, baseResolution),
			joins: map[int]joinInstance{},
		}
		sort.Float64s(hist)
		co.bid = hist[len(hist)*4/5] // ~20% of history lies above the bid
		for _, s := range sh.stages {
			ji := joinInstance{demand: demandProfile((seed*cohorts+int64(c))*8+int64(s), s+1)}
			if sh.milp {
				ji.capacity = constants(s+1, sum(ji.demand)) // slack: never binds
			}
			co.joins[s] = ji
		}
		w.cohorts = append(w.cohorts, co)
	}
	return w, nil
}

// next returns the next request of the sequence. Tenant slot a sends one
// request per round once it is live; slot a goes live at round a%life, so
// joins arrive at a constant rate from the first round on instead of all
// at once. After life requests the tenant re-joins under the same name
// with a fresh demand profile, like an application starting a new planning
// day, so the daemon's tenant registry holds one entry per slot.
func (w *world) next() *job {
	for {
		if w.slot == w.sh.active {
			w.slot, w.round = 0, w.round+1
		}
		a := w.slot
		w.slot++
		off := a % life
		if w.round < off {
			continue
		}
		gen, pos := (w.round-off)/life, (w.round-off)%life
		if pos == 0 {
			w.live[a] = w.newTenant(a, gen)
		}
		t := w.live[a]
		j := &job{seq: w.seq, t: t, srrp: pos == 0, slot: pos - 1, round: w.round, prev: t.last, done: make(chan struct{})}
		w.seq++
		t.last = j
		return j
	}
}

func (w *world) newTenant(a, gen int) *tenant {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(a)*7919 + int64(gen)))
	t := &tenant{
		name:   fmt.Sprintf("t%d", a),
		c:      w.cohorts[(a/life)%len(w.cohorts)],
		stages: w.sh.stages[rng.Intn(len(w.sh.stages))],
	}
	t.demand = demandProfile(rng.Int63(), life-1+t.stages)
	if w.sh.milp {
		maxDem := 0.0
		for _, d := range t.demand {
			maxDem = math.Max(maxDem, d)
		}
		t.capacity = constants(t.stages+1, sum(t.demand))
		if rng.Float64() < w.sh.tightShare {
			// A tight root-stage capacity still covers the largest
			// single-slot demand, so every instance stays feasible, but it
			// stops the here-and-now rental from batching several slots.
			// Later stages stay slack: tight capacities on every stage make
			// branch-and-bound effort heavy-tailed (thousands of nodes on a
			// few instances), which no budget or reference solve can bound.
			t.capacity[0] = maxDem * (1.2 + 0.3*rng.Float64())
		}
	}
	w.tenants++
	return t
}

// demandProfile draws n slots of data demand from the paper's default
// model, i.i.d. N(0.4, 0.2) GB truncated to positive values, as the repo's
// experiments and benchmarks draw it.
func demandProfile(seed int64, n int) []float64 {
	return demand.Series(demand.NewTruncNormal(0.4, 0.2, seed), n)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// schedule draws n Poisson arrivals at rate per second.
func (w *world) schedule(phase, n int, rate float64, rng *rand.Rand) []*job {
	jobs := make([]*job, n)
	at := 0.0
	for i := range jobs {
		at += rng.ExpFloat64() / rate
		j := w.next()
		j.phase, j.due = phase, time.Duration(at*float64(time.Second))
		jobs[i] = j
	}
	return jobs
}

// request builds the wire request of a job; inv is the step inventory.
func (j *job) request(sh serveShape, inv float64) *serve.PlanRequest {
	t, c := j.t, j.t.c
	q := &serve.PlanRequest{
		Tenant: t.name, Class: string(c.class),
		Bid: c.bid, Stages: t.stages, MaxBranch: maxBranch, RootPrice: c.price(j.round),
		BaseValues: c.base.Values, BaseProbs: c.base.Probs,
	}
	if j.srrp {
		ji := c.joins[t.stages]
		q.Model, q.Demand = "srrp", ji.demand
		if sh.milp {
			q.Capacity, q.ConsumptionRate = ji.capacity, 1
		}
		return q
	}
	q.Model, q.Demand, q.Slot, q.Inventory, q.Replan = "step", t.demand, j.slot, inv, 2
	if sh.milp {
		q.Capacity, q.ConsumptionRate = t.capacity, 1
	}
	return q
}

func constants(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// daemon is a running rentpland process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	args []string
	done chan struct{} // closed once the process has exited
}

// startDaemon launches rentpland on a free loopback port and returns once
// /v1/healthz answers 200.
func startDaemon(bin string, workers int) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no -daemon binary given")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-workers", strconv.Itoa(workers)}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start rentpland: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, args: args, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a stopped daemon carries no information
			close(d.done)
		}()
		if lastErr = d.waitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return errors.New("rentpland exited during start")
		default:
		}
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("rentpland not healthy within 10s")
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// graceful shutdown takes too long. Stopping a stopped daemon is a no-op.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process already exited
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// get fetches a daemon endpoint.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

// scrape reads /v1/metrics into series → value.
func (d *daemon) scrape() (promText, error) {
	b, err := d.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(b), nil
}

// promText is a parsed Prometheus exposition: full series name (with its
// label set) → value.
type promText map[string]float64

func parseProm(b []byte) promText {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// sum adds every series of the metric name whose labels contain each of
// the given label fragments (e.g. `model="step"`).
func (p promText) sum(name string, labels ...string) float64 {
	s := 0.0
	for k, v := range p {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				match = false
			}
		}
		if match {
			s += v
		}
	}
	return s
}

// delta returns after − before for every series of after.
func (p promText) delta(before promText) promText {
	d := promText{}
	for k, v := range p {
		d[k] = v - before[k]
	}
	return d
}

// loadgen is the open-loop client: at most conns requests in flight, each
// sent at its scheduled time or as soon as a connection and the tenant's
// previous answer are free.
type loadgen struct {
	sh     serveShape
	base   string
	conns  int
	client *http.Client
}

func newLoadgen(sh serveShape, base string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{sh: sh, base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// run sends one phase's jobs and returns once every response is in.
func (g *loadgen) run(jobs []*job) {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < g.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				j := jobs[k]
				if d := j.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				if j.prev != nil {
					<-j.prev.done
				}
				j.sent = time.Since(t0)
				g.send(j)
				j.end = time.Since(t0)
				close(j.done)
			}
		}()
	}
	wg.Wait()
}

// send posts one job and rolls the tenant's inventory forward from the
// answer.
func (g *loadgen) send(j *job) {
	t := j.t
	j.inv = t.inv
	body, err := json.Marshal(j.request(g.sh, t.inv))
	if err != nil {
		return
	}
	resp, err := g.client.Post(g.base+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	j.code = resp.StatusCode
	if j.code != http.StatusOK {
		return
	}
	if err := json.Unmarshal(b, &j.ans); err != nil {
		j.code = 0
		return
	}
	if !j.srrp && j.ans.Generate != nil {
		inv := t.inv + *j.ans.Generate - t.demand[j.slot]
		if inv < 0 {
			inv = 0 // rounding; a real shortfall is caught by the answer check
		}
		t.inv = inv
	}
}

// phase summarises one open-loop segment or ladder rung.
type phase struct {
	rate     float64
	n, fails int
	p50, p99 float64 // ms from scheduled send to full response; failures count as +Inf
	lateP99  float64 // ms the generator sent after schedule
	growth   float64 // ms: median lateness of the last third minus the first third
	achieved float64 // answered requests / (first due → last response)
	pass     bool
}

func summarise(jobs []*job, rate float64) phase {
	ph := phase{rate: rate, n: len(jobs)}
	lat := make([]float64, len(jobs))
	late := make([]float64, len(jobs))
	var last time.Duration
	for i, j := range jobs {
		late[i] = ms(j.sent - j.due)
		lat[i] = ms(j.end - j.due)
		if !j.ok() {
			ph.fails++
			lat[i] = math.Inf(1)
		}
		if j.end > last {
			last = j.end
		}
	}
	third := len(jobs) / 3
	if third > 0 {
		ph.growth = median(late[len(late)-third:]) - median(late[:third])
	}
	ph.p50 = quantile(append([]float64(nil), lat...), 0.50)
	ph.p99 = windowedP99(lat)
	ph.lateP99 = quantile(late, 0.99)
	if len(jobs) > 0 {
		ph.achieved = float64(len(jobs)-ph.fails) / (last - jobs[0].due).Seconds()
	}
	ph.pass = ph.p99 <= limitMS && ph.growth <= growthMS
	return ph
}

// windowedP99 splits a phase's latencies, in send order, into consecutive
// windows of at least 1000 requests (ten beyond each window's p99) and
// returns the median of the window p99s, so one stall of the shared
// machine moves one window, not the figure.
func windowedP99(lat []float64) float64 {
	k := len(lat) / 1000
	if k < 1 {
		k = 1
	}
	p99s := make([]float64, k)
	for w := range p99s {
		p99s[w] = quantile(append([]float64(nil), lat[w*len(lat)/k:(w+1)*len(lat)/k]...), 0.99)
	}
	return median(p99s)
}

// serveRun is everything one serve workload run produced.
type serveRun struct {
	sh          serveShape
	w           *world
	warm, timed []*job  // timed: every block's low segment and saturation segment, then any ladder rung
	lows        []phase // the low segment of each block
	sats        []float64
	low         phase // every low segment pooled
	rungs       []phase
	maxRate     float64
	metrics     promText // daemon counter deltas over the timed phases
	health      map[string]float64
	rssMiB      float64
	setupS      float64
	daemonArgs  []string
}

func runServe(cfg runConfig, sh serveShape) (*outcome, error) {
	nproc := runtime.NumCPU()
	// setup_s: daemon launch to the first healthy /v1/healthz, median of
	// daemonLaunches launches; the last one serves the run.
	var d *daemon
	var launches []float64
	for i := 0; i < daemonLaunches; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.daemon, nproc); err != nil {
			return nil, err
		}
		launches = append(launches, time.Since(t0).Seconds())
	}
	defer d.stop()

	w, err := newWorld(sh, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &serveRun{sh: sh, w: w, setupS: median(launches), daemonArgs: d.args}
	g := newLoadgen(sh, d.base, nproc)
	rng := rand.New(rand.NewSource(cfg.seed))

	// Warm-up: every tenant slot goes live (life rounds), untimed.
	r.warm = w.schedule(0, sh.active*(life+1)/2, sh.warmRate, rng)
	g.run(r.warm)

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// Timed: blocks of a low-rate segment and a saturation segment until
	// the measured seconds are spent (one block in smoke mode), so a slow
	// stretch of the shared machine moves some blocks and not the medians
	// over all of them.
	var pooled []*job
	start := time.Now()
	for len(r.lows) == 0 || (!cfg.smoke && time.Since(start).Seconds() < cfg.seconds) {
		jobs := w.schedule(1, sh.lowCount, sh.lowRate, rng)
		g.run(jobs)
		r.timed = append(r.timed, jobs...)
		pooled = append(pooled, jobs...)
		r.lows = append(r.lows, summarise(jobs, sh.lowRate))
		r.sats = append(r.sats, r.saturate(g, sh.satCount, rng))
	}
	r.low = summarise(pooled, sh.lowRate)
	var achieved []float64 // the pooled segments run on separate clocks
	for _, ph := range r.lows {
		achieved = append(achieved, ph.achieved)
	}
	r.low.achieved = median(achieved)
	if cfg.trace {
		r.ladder(g, rng)
	}

	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	r.metrics = after.delta(before)
	if b, err := d.get("/v1/healthz"); err == nil {
		_ = json.Unmarshal(b, &r.health)
	}
	if r.rssMiB, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	d.stop()
	return r.report(cfg)
}

// saturate sends n requests back to back over the generator's connections,
// a closed loop without think time, and returns the completion rate: the
// daemon's saturation throughput over the segment.
func (r *serveRun) saturate(g *loadgen, n int, rng *rand.Rand) float64 {
	jobs := r.w.schedule(-1, n, math.Inf(1), rng) // every request due at once
	g.run(jobs)
	r.timed = append(r.timed, jobs...)
	first, last, ok := jobs[0].sent, time.Duration(0), 0
	for _, j := range jobs {
		if j.sent < first {
			first = j.sent
		}
		if j.end > last {
			last = j.end
		}
		if j.ok() {
			ok++
		}
	}
	return float64(ok) / (last - first).Seconds()
}

// ladder climbs the fixed rate grid lowRate·growth^k. Short coarse rungs
// step ladderCoarse grid points at a time until one fails; longer fine rungs
// then climb one grid point at a time from the last passing coarse rung,
// up to and including the coarse rung that failed. The achieved rate of
// the highest passing rung is max_rate_rps.
func (r *serveRun) ladder(g *loadgen, rng *rand.Rand) {
	sh := r.sh
	best := r.low
	defer func() { r.maxRate = best.achieved }()
	if !r.low.pass {
		return // nothing passes: report what the low rate achieved
	}
	rung := func(k int, sec float64) bool {
		rate := sh.lowRate * math.Pow(ladderGrowth, float64(k))
		jobs := r.w.schedule(2+len(r.rungs), int(rate*sec), rate, rng)
		g.run(jobs)
		r.timed = append(r.timed, jobs...)
		ph := summarise(jobs, rate)
		r.rungs = append(r.rungs, ph)
		if ph.pass && ph.rate > best.rate {
			best = ph
		}
		return ph.pass
	}
	k := 0
	for i := 0; i < sh.maxCoarse && rung(k+ladderCoarse, coarseSec); i++ {
		k += ladderCoarse
	}
	for i := 1; i <= ladderCoarse && rung(k+i, fineSec); i++ {
	}
}

// baseResolution buckets historical prices into the base distribution. At
// a tenth of a cent every seeded history keeps at least two price states
// below the bid, so MaxBranch 3 trees always branch three ways and tree
// sizes (40, 121, 364 vertices at 3, 4, 5 stages) do not depend on the seed.
const baseResolution = 0.001

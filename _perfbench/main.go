// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds celia-server and this program from the
// checkout); it starts the real celia-server as a child process on
// loopback and drives it from one process with an open-loop, seeded,
// constant-rate arrival schedule over at most GOMAXPROCS connections,
// timing every request from its scheduled send time. A run prints a
// human-readable report and, as its last stdout line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run serves the same stream from an in-process api.Server wrapped in a
// timing handler, replays it through serving.Frontdoor.Do with the
// benchmark's own compute closures, and runs the per-layer ladder; the
// metrics are then the per-layer ones. See README.md beside this file.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh -workload fresh-mix -seed 1 -seconds 20 -trace 0
//	bash _perfbench/run.sh -workload plan -seed 1 -dump plan-1.jsonl
//	bash _perfbench/run.sh -workload plan -seed 1 -replay plan-1.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/snapshot"
)

// workloadSpec is one traffic mix: a seeded request source plus the
// server flags it needs, its open-loop rate and its latency limit.
type workloadSpec struct {
	name    string
	billing model.Billing
	restore bool    // restore indexes from snapshots instead of building them cold
	rate    float64 // open-loop requests per second
	sloMS   float64 // latency limit behind slo_met_share
	source  func(*rand.Rand, []appModel) func() []request
	oracleN int // responses checked byte for byte against the scan oracle
}

// The latency limits sit above each workload's p99 on a calm host, so
// slo_met_share is just below 1 and falls when the tail grows: about
// 1.5-2x the fresh mixes' p99 and plan's.
var workloads = []*workloadSpec{
	{name: "fresh-mix", billing: model.PerSecond, rate: 100, sloMS: 25, source: freshMix, oracleN: 4},
	{name: "fresh-mix-perhour", billing: model.PerHour, restore: true, rate: 100, sloMS: 25, source: freshMix, oracleN: 4},
	{name: "hot-zipf", billing: model.PerSecond, restore: true, rate: 1000, sloMS: 25, source: hotZipf, oracleN: 4},
	{name: "plan", billing: model.PerSecond, restore: true, rate: 8, sloMS: 100, source: planMix},
}

// Run-shape constants. Set-up is repeated and its median reported; the
// capacity phase is closed-loop after the open loop.
const (
	setupRounds     = 3
	capacityWindows = 4
	capacityWindow  = time.Second
)

// lagBound invalidates a run whose generator woke more than this late
// (p99) for requests it had a free connection for: past it the
// generator, not the server, would set the fresh mixes' tail. Host
// stalls on a shared 2-vCPU VM put the p99 lag anywhere from 1 ms to
// over 10 ms.
const lagBound = 25 * time.Millisecond

func (w *workloadSpec) serverFlags(snapDir string) []string {
	flags := []string{"-billing", map[model.Billing]string{model.PerSecond: "persecond", model.PerHour: "perhour"}[w.billing]}
	if w.restore {
		flags = append(flags, "-snapshot-dir", snapDir)
	}
	return flags
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: fresh-mix, fresh-mix-perhour, hot-zipf, plan")
		seed    = flag.Uint64("seed", 1, "seed of the request stream")
		seconds = flag.Int("seconds", 20, "length of the open-loop phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		bin     = flag.String("server", "", "celia-server binary built from this checkout")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for snapshots, logs and span dumps")
		dump    = flag.String("dump", "", "write the open-loop stream to this JSON Lines file and exit")
		replay  = flag.String("replay", "", "send the stream dumped in this file instead of generating one")
	)
	flag.Parse()
	w := lookupWorkload(*wlName)
	if w == nil {
		fatalf("unknown workload %q", *wlName)
	}
	models := newAppModels()
	var reqs []request
	if *replay != "" {
		var err error
		if reqs, err = loadStream(*replay); err != nil {
			fatalf("%v", err)
		}
	} else {
		reqs = openLoopStream(w, *seed, models, time.Duration(*seconds)*time.Second)
	}
	if *dump != "" {
		if err := dumpStream(*dump, reqs); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *bin == "" {
		fatalf("-server is required (run.sh builds it)")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	snapDir := filepath.Join(*outDir, "snapshots")
	if w.restore || *trace == 1 {
		logf("preparing index snapshots (untimed)")
		if err := prepareSnapshots(snapDir); err != nil {
			fatalf("snapshots: %v", err)
		}
	}
	r := &run{ctx: ctx, w: w, seed: *seed, models: models, reqs: reqs, bin: *bin, outDir: *outDir, snapDir: snapDir,
		conns: runtime.GOMAXPROCS(0), check: newChecker(logf)}
	var res result
	var err error
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func lookupWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(2)
}

// prepareSnapshots writes each app's frontier-index snapshot into dir,
// keeping any artifact that already restores cleanly into this build's
// engines.
func prepareSnapshots(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range cli.AppNames() {
		app, err := cli.LookupApp(name)
		if err != nil {
			return err
		}
		eng := core.NewPaperEngine(app)
		path := snapshot.PathFor(dir, name)
		if _, err := snapshot.Load(path, eng); err == nil {
			continue
		}
		if err := snapshot.Save(path, eng); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// run carries one benchmark invocation's inputs.
type run struct {
	ctx     context.Context
	w       *workloadSpec
	seed    uint64
	models  []appModel
	reqs    []request
	bin     string
	outDir  string
	snapDir string
	conns   int
	check   *checker
	invalid []string
}

func (r *run) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	logf("INVALID RUN: %s", msg)
	r.invalid = append(r.invalid, msg)
}

// keepBody retains the bodies verification reads: the first answer of
// every distinct request (repeats are checked against it by hash).
func (r *run) keepBody() func(int) bool {
	first := map[string]int{}
	for i, q := range r.reqs {
		if _, ok := first[string(q.Body)]; !ok {
			first[string(q.Body)] = i
		}
	}
	return func(i int) bool { return first[string(r.reqs[i].Body)] == i }
}

// untraced is the end-to-end run: repeated set-up of the child server,
// the open loop, the closed-loop capacity phase, the client/server
// cross-check, and output verification.
func (r *run) untraced() (result, error) {
	w := r.w
	logPath := filepath.Join(r.outDir, "server.log")
	var setups []float64
	var srv *server
	for i := 0; i < setupRounds; i++ {
		s, d, err := setUp(r.ctx, r.bin, w.serverFlags(r.snapDir), logPath)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		logf("set-up %d: %.3fs", i+1, d.Seconds())
		if i < setupRounds-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	c := newClient(srv.addr, r.conns)
	defer c.close()
	cpu0, err := srv.cpuTime()
	if err != nil {
		return result{}, err
	}
	logf("open loop: %d requests at %g/s over %d connections", len(r.reqs), w.rate, r.conns)
	outs := runOpen(r.ctx, c, r.reqs, r.conns, false, r.keepBody())
	cpu1, err := srv.cpuTime()
	if err != nil {
		return result{}, err
	}
	serverMetrics, err := c.get(r.ctx, "/debug/metrics")
	if err != nil {
		return result{}, err
	}
	logf("capacity: closed loop, %d windows of %v", capacityWindows, capacityWindow)
	capRes := runClosed(r.ctx, c, closedStream(w, r.seed, r.models), r.conns, capacityWindows, capacityWindow)
	// Reported, not judged: with both vCPUs saturated, the host's load
	// swung this median by 20-50% between runs of one seed while the
	// open loop's CPU per request held within a few percent.
	fmt.Printf("capacity_rps %.1f 1/s (reported, not judged; median of windows %.1f)\n", median(capRes.rates()), capRes.rates())
	rss, err := srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	if n := c.dials.Load(); n > int64(r.conns) {
		r.invalidate("opened %d connections, limit %d", n, r.conns)
	}
	srv.stop()
	if err := r.ctx.Err(); err != nil {
		return result{}, err
	}

	r.check.statuses(outs)
	r.check.cacheConsistency(r.reqs, outs)
	r.check.invariants(r.reqs, outs)
	if err := r.check.againstOracle(r.ctx, newOracle(w.billing), r.reqs, outs, oracleSample(w, r.seed, r.reqs, outs, w.oracleN)); err != nil {
		return result{}, err
	}
	lo := r.summarize(outs)
	r.crossCheck(outs, serverMetrics)

	completed := 0
	for _, o := range outs {
		if o.ok() {
			completed++
		}
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {lo.p50, "ms"},
		"slo_met_share":  {lo.sloMet, "share"},
		"ok_share":       {lo.okShare, "share"},
		"cpu_ms_per_req": {ms(cpu1-cpu0) / float64(max(completed, 1)), "ms"},
		"rss_mb":         {rss, "MiB"},
	}
	return result{
		Correct:   len(r.check.bad) == 0 && len(r.invalid) == 0,
		Attempted: len(outs) + capRes.sent,
		Failed:    len(r.check.bad) + capRes.failed,
		Metrics:   m,
	}, nil
}

// openSummary is the open loop's client-side view.
type openSummary struct {
	p50, sloMet, okShare float64
}

// summarize derives latency from each request's due time, checks the
// generator's honesty, and prints the sample counts behind the tails.
// The p99 is printed, not judged: on a shared 2-vCPU host, steal time
// comes in bursts lasting from a second to most of a run and doubles the
// tail while it lasts, so over ten seeds the p99 spread by 0.16-0.34 of
// its median however it was windowed. The tail is judged through
// slo_met_share, whose limit sits above the calm-host p99.
func (r *run) summarize(outs []outcome) openSummary {
	var lat, lag []float64
	slo, ok := 0, 0
	for i, o := range outs {
		l := ms(o.done - r.reqs[i].Due)
		if o.err == nil {
			lat = append(lat, l)
		}
		lag = append(lag, ms(o.lag))
		if _, bad := r.check.bad[i]; bad || !o.ok() {
			continue
		}
		ok++
		if l <= r.w.sloMS {
			slo++
		}
	}
	n := float64(len(outs))
	s := openSummary{p50: quantile(lat, 0.5), sloMet: float64(slo) / n, okShare: float64(ok) / n}
	lagP99 := quantile(lag, 0.99)
	fmt.Printf("open loop: %d sent, %d latency samples, limit %g ms\n", len(outs), len(lat), r.w.sloMS)
	fmt.Printf("latency_p99_ms %.3f ms (reported, not judged; %d samples beyond it)\n",
		quantile(lat, 0.99), len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	fmt.Printf("generator: lag p99 %.3f ms (bound %v), backlog max %d\n", lagP99, lagBound, backlogMax(r.reqs, outs))
	if lagP99 > ms(lagBound) {
		r.invalidate("generator lag p99 %.3f ms exceeds %v", lagP99, lagBound)
	}
	return s
}

// histSummary is one histogram of the server's /debug/metrics.
type histSummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// serverHists decodes the histograms of a /debug/metrics body.
func serverHists(body []byte) (map[string]histSummary, error) {
	var snap struct {
		Histograms map[string]histSummary `json:"histograms"`
	}
	err := json.Unmarshal(body, &snap)
	return snap.Histograms, err
}

// crossCheck prints the server's per-route and compute p50 beside the
// client's round-trip p50 (send to last byte). The server's histogram
// reports a bucket's upper bound, at most 12.5% above the bucket's
// floor; a floor above the client's p50 is impossible for a correct
// measurement, so it invalidates the run.
func (r *run) crossCheck(outs []outcome, body []byte) {
	hists, err := serverHists(body)
	if err != nil {
		r.invalidate("debug/metrics: %v", err)
		return
	}
	rtt := map[string][]float64{}
	for i, o := range outs {
		if o.ok() {
			rtt[r.reqs[i].Kind] = append(rtt[r.reqs[i].Kind], ms(o.done-o.sent))
		}
	}
	kinds := make([]string, 0, len(rtt))
	for k := range rtt {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		h := hists["http."+k+".ms"]
		client := quantile(rtt[k], 0.5)
		fmt.Printf("cross-check %-12s client rtt p50 %8.3f ms   server http.%s.ms p50 <= %8.3f ms (n=%d)\n",
			k, client, k, h.P50, h.Count)
		if h.P50/1.125 > client {
			r.invalidate("server-side p50 of %s (%.3f ms) exceeds the client's (%.3f ms)", k, h.P50, client)
		}
	}
	fmt.Printf("cross-check serving.compute_ms p50 <= %.3f ms (n=%d)\n", hists["serving.compute_ms"].P50, hists["serving.compute_ms"].Count)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

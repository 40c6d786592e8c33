package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// warmupSettles is how many untimed settlements each set-up waits for.
const warmupSettles = 5

// setups is how many times a run sets the workload up; setup_s is their
// median and the last one is measured.
const setups = 3

// instance is one running workload: inputs, program and fleet.
type instance struct {
	w      workload
	in     *inputs
	probes []int
	tr     *tracerSlot
	store  *benchStore
	top    *topology
	fleet  *fleet
}

// setUp generates the inputs, starts the program and the fleet, and waits
// out the warm-up rounds.
func setUp(w workload, seed uint64) (*instance, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	x := &instance{w: w, in: in, tr: &tracerSlot{}, probes: probeCoords(len(in.global), seed)}
	x.store = newBenchStore(x.tr, x.probes)
	if x.top, err = startTopology(w, in, x.store, x.tr, seed); err != nil {
		return nil, err
	}
	x.fleet = newFleet(w.population, in, x.store, x.tr, x.top.dial)
	x.fleet.start()
	if !x.store.waitCount(warmupSettles, time.Now().Add(60*time.Second)) {
		x.finish()
		return nil, fmt.Errorf("warm-up: %d of %d rounds settled in 60s", x.store.seq(), warmupSettles)
	}
	return x, nil
}

// finish stops the fleet and the program and checks every round the
// instance committed against the reference fold.
func (x *instance) finish() checkResult {
	x.fleet.drain(x.top.close)
	settled := x.store.settlements()
	final, err := x.store.LatestCheckpoint(x.in.plan.ID)
	if err != nil {
		return checkResult{problems: []string{"no committed checkpoint: " + err.Error()}}
	}
	return checkRun(x.in, x.w.secure, x.probes, settled, x.fleet.reports(), final.Params, final.Round)
}

// usage is a snapshot of the process counters a window is measured by.
type usage struct {
	at     time.Time
	cpu    time.Duration
	alloc  uint64
	gcCPU  float64
	counts fleetCounts
	seals  int64
}

func (x *instance) snapshot() usage {
	u := usage{at: time.Now(), counts: x.fleet.counts()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = samples[1].Value.Float64()
	}
	if x.top.coord != nil {
		if st, err := x.top.coord.Stats(); err == nil {
			u.seals = st.SealsReceived
		}
	}
	return u
}

// window is one measured interval of the closed loop.
type window struct {
	from, to  usage
	settled   []settlement // settlements inside the window
	commits   int
	failures  int
	intervals []float64 // ms between a commit and the settlement before it
	rssPeak   float64   // MB, the largest resident set sampled
}

// rssEvery is how often a window samples the process's resident set.
const rssEvery = 10 * time.Millisecond

// measure runs the closed loop for d.
func (x *instance) measure(d time.Duration) window {
	from := x.snapshot()
	var peak float64
	end := from.at.Add(d)
	for now := time.Now(); now.Before(end); now = time.Now() {
		peak = math.Max(peak, residentMB())
		time.Sleep(min(rssEvery, end.Sub(now)))
	}
	to := x.snapshot()
	w := window{from: from, to: to, rssPeak: peak}
	var prev time.Time
	for _, st := range x.store.settlements() {
		if st.at.After(to.at) {
			break
		}
		if !st.at.After(from.at) {
			prev = st.at
			continue
		}
		w.settled = append(w.settled, st)
		if st.committed {
			w.commits++
			if !prev.IsZero() {
				w.intervals = append(w.intervals, float64(st.at.Sub(prev).Nanoseconds())/1e6)
			}
		} else {
			w.failures++
		}
		prev = st.at
	}
	return w
}

func (w window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }

// perRound divides v by the window's committed rounds.
func (w window) perRound(v float64) float64 {
	if w.commits == 0 {
		return 0
	}
	return v / float64(w.commits)
}

// metric is one reported number. An extra metric is printed but left
// out of the JSON result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	extra bool
}

// failRatios are the window's failed rounds ÷ attempted rounds, and its
// failed reports ÷ reports sent. A report fails when it is rejected for a
// reason other than the closing window, or goes unanswered; over-selection
// aborts are by design.
func (w window) failRatios() (rounds, reports float64) {
	c0, c := w.from.counts, w.to.counts
	sent := float64(c.reportsSent - c0.reportsSent)
	bad := float64(c.reportsRejected - c0.reportsRejected + c.noAnswer - c0.noAnswer)
	return 1 - ratio(w.commits, w.commits+w.failures), bad / nonZero(sent)
}

// endToEnd derives the user-visible metrics of a window.
func endToEnd(w window, setup float64) []metric {
	c0, c := w.from.counts, w.to.counts
	roundFail, reportFail := w.failRatios()
	p50, p90 := quantile(w.intervals, 0.5), quantile(w.intervals, 0.9)
	beyond := len(w.intervals) - int(0.9*float64(len(w.intervals)))
	return []metric{
		{"rounds_per_s", float64(w.commits) / w.seconds(), "1/s", fmt.Sprintf("%d commits in %.1fs", w.commits, w.seconds()), false},
		{"round_ms_p50", p50, "ms", fmt.Sprintf("n=%d", len(w.intervals)), false},
		{"round_ms_p90", p90, "ms", fmt.Sprintf("n=%d, %d beyond", len(w.intervals), beyond), false},
		{"cpu_ms_per_round", w.perRound(float64((w.to.cpu - w.from.cpu).Nanoseconds()) / 1e6), "ms", "process user+sys", false},
		{"alloc_mb_per_round", w.perRound(float64(w.to.alloc-w.from.alloc) / 1e6), "MB", "heap bytes allocated", false},
		{"rss_peak_mb", w.rssPeak, "MB", fmt.Sprintf("largest resident set, sampled every %v", rssEvery), false},
		{"setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setups), false},
		{"round_fail_ratio", roundFail, "ratio", fmt.Sprintf("%d failed of %d attempted", w.failures, w.commits+w.failures), true},
		{"report_fail_ratio", reportFail, "ratio", fmt.Sprintf("of %d sent; %d acked; by design: %d aborted, %d late",
			c.reportsSent-c0.reportsSent, c.reportsOK-c0.reportsOK, c.reportsAborted-c0.reportsAborted, c.reportsLate-c0.reportsLate), true},
		// The fail ratios are often exactly 0; their complements are the
		// bounded metrics.
		{"round_commit_ratio", 1 - roundFail, "ratio", "1 - round_fail_ratio", false},
		{"report_ok_ratio", 1 - reportFail, "ratio", "1 - report_fail_ratio", false},
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the q-quantile of vs by linear interpolation, 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// residentMB is the process's resident set in MB (/proc/self/statm).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / 1e6
}

// result is one run's outcome.
type result struct {
	metrics           []metric
	findings          []string
	check             checkResult
	attempted, failed int
}

// runWorkload sets the workload up several times and measures the last
// set-up for d; with trace it measures half of d untraced and half traced,
// then times each layer in isolation. Every set-up is checked against the
// reference fold.
func runWorkload(w workload, seed uint64, d time.Duration, trace bool, spansPath string) (*result, error) {
	res := &result{}
	var setupTimes []float64
	var x *instance
	for i := 0; i < setups; i++ {
		start := time.Now()
		inst, err := setUp(w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i == setups-1 {
			x = inst
			break
		}
		if chk := inst.finish(); !chk.ok() {
			res.check = chk
			return res, nil
		}
		runtime.GC()
	}

	// A traced run splits its time between an untraced and a traced
	// window, so that it takes as long as an untraced run and its own
	// trace.overhead compares like with like.
	if trace {
		d /= 2
	}
	untraced := x.measure(d)
	res.metrics = endToEnd(untraced, median(setupTimes))
	res.attempted = untraced.commits + untraced.failures
	res.failed = untraced.failures
	res.findings = findings(untraced)

	var traced window
	var t *tracer
	if trace {
		t = &tracer{}
		x.tr.set(t)
		traced = x.measure(d)
		x.tr.set(nil)
	}
	res.check = x.finish()
	if !trace {
		return res, nil
	}
	iso, err := isolate(w, x.in)
	if err != nil {
		return nil, fmt.Errorf("isolated layer timings: %w", err)
	}
	spans := t.all()
	res.metrics = perLayer(x, untraced, traced, spans, iso)
	res.attempted = traced.commits + traced.failures
	res.failed = traced.failures
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	return res, nil
}

// findings reports what the program's own records show, so that a change
// that fixes one shows as a metric change: phase coverage (Σ phases ÷
// total_ns, which reads above 1 where phases overlap) and the reasons of
// failed rounds.
func findings(w window) []string {
	var phaseSum, total float64
	reasons := make(map[string]int)
	for _, st := range w.settled {
		if !st.traced {
			continue
		}
		if !st.committed {
			reason := st.trace.FailReason
			if i := strings.Index(reason, ";"); i > 0 {
				reason = reason[:i]
			}
			reasons[reason]++
			continue
		}
		for _, ns := range st.trace.Phases {
			phaseSum += float64(ns)
		}
		total += float64(st.trace.TotalNanos)
	}
	out := []string{
		fmt.Sprintf("finding.phase_coverage %.4f (Σ RoundTrace phases ÷ total_ns over %d committed rounds; >1 means phases overlap or are over-counted)", phaseSum/nonZero(total), w.commits),
	}
	keys := make([]string, 0, len(reasons))
	for r := range reasons {
		keys = append(keys, r)
	}
	sort.Strings(keys)
	for _, r := range keys {
		out = append(out, fmt.Sprintf("finding.fail_reason %d× %q", reasons[r], r))
	}
	return out
}

// nonZero guards a denominator.
func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

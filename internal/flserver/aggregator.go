package flserver

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Aggregator is the ephemeral per-group aggregation actor (Sec. 4.2). With
// simple aggregation it folds updates into a running sum as they arrive
// (online, in-memory — no per-device log ever exists). With Secure
// Aggregation it buffers the group's inputs and runs the secagg protocol at
// finalization, so the group sum is produced without the aggregate code
// path ever handling an unmasked individual update.
type Aggregator struct {
	dim    int
	secure bool
	master actor.Ref

	// threshold maps group size n to the secagg Shamir threshold t; nil
	// defaults to the majority n/2 + 1. Set by the Master Aggregator from
	// the plan before spawn (same-package field injection).
	threshold func(n int) int
	// finalizeTimeout bounds the async secagg run; 0 defaults to
	// plan.ServerPlan's 2-minute fallback. A run that exceeds it is
	// abandoned with an attributed group error instead of stalling the
	// round.
	finalizeTimeout time.Duration
	// churn, when set (tests, simulation), injects additional mid-protocol
	// churn into the group's secagg schedule on top of the real losses.
	churn func(n, t int) secagg.Schedule
	// robustPolicy is the task's robust aggregation policy; the group that
	// receives the round's retention buffer (msgFinalizeGroup.Robust) runs
	// its reduce at finalization. Injected by the Master Aggregator before
	// spawn, like threshold, along with the task-labeled defense counters.
	robustPolicy                    plan.RobustPolicy
	obsRejectedTask, obsTrimmedTask *obs.Counter

	acc     *fedavg.Accumulator
	metrics map[string][]float64
	// evalCount counts metrics-only reports (evaluation tasks).
	evalCount int

	// secure-mode buffer: device inputs awaiting the secagg run, keyed by
	// 1-based secagg participant id; secDevice maps those ids back to
	// device identity for blame attribution.
	secInputs map[int][]float64
	secDevice map[int]string
	secNext   int
	// secBlamed carries the secagg run's attributed exclusions into the
	// group result.
	secBlamed []string
	// robustRejected carries the robust reduce's defense attributions
	// ("deviceID: reason") into the group result.
	robustRejected []string
	// secPhases carries the secagg run's per-phase wall times into the
	// group result for the round tracer.
	secPhases map[string]time.Duration
	// finalizing is set once msgFinalizeGroup arrives; the actor may stay
	// alive awaiting msgSecAggDone and must reject any late adds. done is
	// set once the group result has been reported, so a late secagg result
	// racing the finalization watchdog cannot double-report.
	finalizing bool
	done       bool
}

// NewAggregator returns the behavior for a group aggregator.
func NewAggregator(dim int, secure bool, master actor.Ref) *Aggregator {
	return &Aggregator{
		dim:       dim,
		secure:    secure,
		master:    master,
		acc:       fedavg.NewAccumulator(dim),
		metrics:   make(map[string][]float64),
		secInputs: make(map[int][]float64),
		secDevice: make(map[int]string),
		secNext:   1,
	}
}

// msgAddUpdate delivers one device's update to its group Aggregator. On
// the wire path it comes straight from the device's connection reader
// (secure rounds buffer per-device vectors — secagg needs them — but the
// master hop is skipped); tests and the legacy path may still route a
// decoded Checkpoint.
type msgAddUpdate struct {
	DeviceID string
	Update   *checkpoint.Checkpoint
	// Input, when set, is a pre-validated pooled delta‖weight buffer of
	// length dim+1 decoded at the edge; the Aggregator owns it from here
	// and returns it to the pool once the secagg run has consumed it.
	Input   tensor.Vector
	Metrics map[string]float64
	// Conn, when set, is the device's connection awaiting the
	// ReportResponse; the Aggregator answers it off the actor goroutine.
	Conn transport.Conn
}

// msgAddResult tells the Master Aggregator whether the add was accepted.
type msgAddResult struct {
	DeviceID string
	OK       bool
	Err      string
}

// msgSecAggDone posts the result of an async secagg run back to the group
// Aggregator that launched it.
type msgSecAggDone struct {
	Sum       []float64
	Survivors int
	// Blamed lists devices the run excluded with attribution
	// ("deviceID: reason"); populated on success and on abort.
	Blamed []string
	// Phases is the run's per-phase wall time (secagg.Result.Phases).
	Phases map[string]time.Duration
	Err    error
}

// msgSecAggTimeout fires when a group's secagg finalization exceeds its
// deadline; the group reports an attributed failure instead of stalling
// the round.
type msgSecAggTimeout struct{}

// planMarshals counts plan.Marshal calls made during Configuration,
// process-wide. Tests and BenchmarkRoundThroughput read the delta across a
// round to assert marshals stay O(distinct runtime versions), not O(devices).
var planMarshals atomic.Int64

// secaggGate bounds concurrent secagg finalizations process-wide: each run
// saturates the cores with its own worker pools, so admitting more than
// GOMAXPROCS at once only multiplies transient partial-vector memory
// (O(workers × dim) per run) without adding throughput.
var secaggGate = make(chan struct{}, runtime.GOMAXPROCS(0))

// Receive implements actor.Behavior.
func (a *Aggregator) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgAddUpdate:
		a.onAdd(m)
	case msgFinalizeGroup:
		a.onFinalize(ctx, m)
	case msgSecAggDone:
		a.onSecAggDone(ctx, m)
	case msgSecAggTimeout:
		a.onSecAggTimeout(ctx)
	}
}

func (a *Aggregator) onAdd(m msgAddUpdate) {
	// resolve reports the verdict: to the device (off the actor goroutine —
	// a stalled socket must never block the group) and to the Master
	// Aggregator for round accounting.
	resolve := func(ok bool, reason string) {
		if ok {
			obsReportsOK.Inc()
		} else {
			obsReportsRejected.Inc()
		}
		if m.Conn != nil {
			sendThenClose(m.Conn, protocol.ReportResponse{Accepted: ok, Reason: reason})
		}
		_ = a.master.Send(msgAddResult{DeviceID: m.DeviceID, OK: ok, Err: reason})
	}
	if a.finalizing {
		if m.Input != nil {
			putParamBuf(m.Input)
		}
		resolve(false, "reporting window closed")
		return
	}
	if m.Input != nil {
		// Pre-validated pooled delta‖weight from the device's reader: the
		// appended weight element rides through the secure sum so the
		// server learns Σn without individual n's.
		if len(m.Input) != a.dim+1 {
			putParamBuf(m.Input)
			resolve(false, fmt.Sprintf("update dim %d, want %d", len(m.Input)-1, a.dim))
			return
		}
		a.secInputs[a.secNext] = m.Input
		a.secDevice[a.secNext] = m.DeviceID
		a.secNext++
		for name, v := range m.Metrics {
			a.metrics[name] = append(a.metrics[name], v)
		}
		resolve(true, "")
		return
	}
	if m.Update == nil {
		// Metrics-only report (evaluation task).
		a.evalCount++
		for name, v := range m.Metrics {
			a.metrics[name] = append(a.metrics[name], v)
		}
		resolve(true, "")
		return
	}
	if len(m.Update.Params) != a.dim {
		resolve(false, fmt.Sprintf("update dim %d, want %d", len(m.Update.Params), a.dim))
		return
	}
	if m.Update.Weight <= 0 {
		resolve(false, "non-positive weight")
		return
	}
	if a.secure {
		// Buffer delta‖weight (legacy/test path: the update arrived as a
		// decoded Checkpoint rather than a pooled buffer).
		input := make(tensor.Vector, a.dim+1)
		copy(input, m.Update.Params)
		input[a.dim] = m.Update.Weight
		a.secInputs[a.secNext] = input
		a.secDevice[a.secNext] = m.DeviceID
		a.secNext++
	} else {
		if err := a.acc.Add(&fedavg.Update{Delta: m.Update.Params, Weight: m.Update.Weight}); err != nil {
			resolve(false, err.Error())
			return
		}
	}
	for name, v := range m.Metrics {
		a.metrics[name] = append(a.metrics[name], v)
	}
	resolve(true, "")
}

func (a *Aggregator) onFinalize(ctx *actor.Context, m msgFinalizeGroup) {
	a.finalizing = true
	// Run the round's robust reduce (per-update retention policies): the
	// buffer holds every decoded update of the round, and the policy's
	// order statistic or outlier filter replaces the plain stripe merge.
	// Result vectors never alias the pooled update buffers, so they are
	// released immediately.
	if m.Robust != nil {
		updates, evalCount, metrics := m.Robust.Drain()
		start := time.Now()
		res := robust.Reduce(a.robustPolicy, a.dim, updates)
		reduceTime := time.Since(start)
		robust.Release(updates)
		a.evalCount += evalCount
		for name, vs := range metrics {
			a.metrics[name] = append(a.metrics[name], vs...)
		}
		for _, rej := range res.Rejected {
			a.robustRejected = append(a.robustRejected, rej.Device+": "+rej.Reason)
		}
		sort.Strings(a.robustRejected)
		if a.secPhases == nil {
			a.secPhases = make(map[string]time.Duration, 1)
		}
		a.secPhases["robust_reduce"] = reduceTime
		obsRobustRejected.Add(int64(len(res.Rejected)))
		obsRobustTrimmed.Add(res.Trimmed)
		if a.obsRejectedTask != nil {
			a.obsRejectedTask.Add(int64(len(res.Rejected)))
			a.obsTrimmedTask.Add(res.Trimmed)
		}
		if res.Count > 0 {
			if err := a.acc.AddRaw(res.Sum, res.Weight, res.Count); err != nil {
				a.finish(ctx, "robust reduce: "+err.Error())
				return
			}
		}
	}
	// Merge this group's share of the round's edge-accumulation stripes
	// (non-secure rounds; empty otherwise). Drain seals each stripe, so a
	// reader racing the window close gets ErrPartialClosed instead of
	// folding into a merged stripe.
	for _, st := range m.Stripes {
		sum, weight, count, evalCount, metrics := st.Drain()
		if count > 0 {
			if err := a.acc.AddRaw(sum, weight, count); err != nil {
				a.finish(ctx, "merge stripe: "+err.Error())
				return
			}
		}
		a.evalCount += evalCount
		for name, vs := range metrics {
			a.metrics[name] = append(a.metrics[name], vs...)
		}
	}
	if a.secure && len(a.secInputs) > 0 {
		delivered := len(a.secInputs)
		if delivered < 2 {
			// A singleton "group sum" IS the individual update, so a
			// direct-sum fallback would hand the server exactly what Secure
			// Aggregation exists to hide. Refuse and drop the update; the
			// Master Aggregator partitions groups so this cannot happen
			// short of a bug or an adversarial configuration.
			a.finish(ctx, fmt.Sprintf("secagg: group of %d below minimum 2; update dropped", delivered))
			return
		}
		// The instance is sized by the devices assigned to the group, not
		// by what happened to arrive: a configured device whose connection
		// died or timed out is a real protocol dropout, entered into the
		// churn schedule at the share-keys boundary (it checked in —
		// advertised — but never dealt shares, so it is excluded from the
		// mask set and its loss costs nothing at unmask time).
		n := delivered
		var lostNames []string
		if len(m.Assigned) > 0 && len(m.Assigned) > delivered {
			n = len(m.Assigned)
			deliveredNames := make(map[string]bool, delivered)
			for _, name := range a.secDevice {
				deliveredNames[name] = true
			}
			for _, name := range m.Assigned {
				if !deliveredNames[name] {
					lostNames = append(lostNames, name)
				}
			}
		}
		t := n/2 + 1
		if a.threshold != nil {
			t = a.threshold(n)
		}
		if delivered < t {
			// Below-threshold churn: a clean, attributed abort that still
			// carries the group's metrics — never a stall, and never a
			// degraded run that would weaken the privacy threshold.
			a.finish(ctx, fmt.Sprintf("secagg: only %d of %d group devices delivered (< threshold %d); lost: %s",
				delivered, n, t, strings.Join(lostNames, ", ")))
			return
		}
		sched := secagg.Schedule{}
		if a.churn != nil {
			sched = a.churn(n, t)
		}
		inputs := a.secInputs
		for id := delivered + 1; id <= n; id++ {
			// Lost devices participate up to the phase where their loss
			// signal places them: present at check-in, gone before dealing
			// shares. Their nil input is never read.
			inputs[id] = nil
			sched.DropShareKeys = append(sched.DropShareKeys, id)
		}
		cfg := secagg.Config{N: n, T: t, VectorLen: a.dim + 1}
		secDevice := a.secDevice
		a.secInputs = nil
		self := ctx.Self
		if a.finalizeTimeout > 0 {
			time.AfterFunc(a.finalizeTimeout, func() { _ = self.Send(msgSecAggTimeout{}) })
		}
		// Run the protocol off the actor goroutine so multiple group
		// Aggregators finalize concurrently; the result comes back as a
		// message and the actor stays alive until it lands.
		go func() {
			// Receive's panic isolation does not cover this goroutine;
			// convert a protocol panic into a failed finalization so it
			// costs the group, not the process.
			defer func() {
				if r := recover(); r != nil {
					_ = self.Send(msgSecAggDone{Err: fmt.Errorf("secagg panic: %v", r)})
				}
			}()
			secaggGate <- struct{}{}
			defer func() { <-secaggGate }()
			res, err := secagg.RunSchedule(cfg, inputs, sched)
			// The protocol consumed the inputs (Encode copies them into
			// field elements); hand the buffers back so the next round's
			// readers reuse them instead of allocating O(group × dim).
			for _, in := range inputs {
				if in != nil {
					putParamBuf(in)
				}
			}
			done := msgSecAggDone{Err: err}
			if res != nil {
				done.Sum = res.Sum
				done.Survivors = len(res.Survivors)
				done.Phases = res.Phases
				for id, why := range res.Blamed {
					name := secDevice[id]
					if name == "" {
						name = fmt.Sprintf("participant-%d", id)
					}
					done.Blamed = append(done.Blamed, name+": "+why)
				}
				sort.Strings(done.Blamed)
			}
			_ = self.Send(done)
		}()
		return
	}
	a.finish(ctx, "")
}

func (a *Aggregator) onSecAggDone(ctx *actor.Context, m msgSecAggDone) {
	if a.done {
		return
	}
	a.secBlamed = m.Blamed
	a.secPhases = m.Phases
	if m.Err != nil {
		a.finish(ctx, m.Err.Error())
		return
	}
	if err := a.acc.AddRaw(tensor.Vector(m.Sum[:a.dim]), m.Sum[a.dim], m.Survivors); err != nil {
		a.finish(ctx, err.Error())
		return
	}
	a.finish(ctx, "")
}

func (a *Aggregator) onSecAggTimeout(ctx *actor.Context) {
	if a.done || !a.finalizing {
		return
	}
	a.finish(ctx, fmt.Sprintf("secagg: finalization exceeded %v; group abandoned", a.finalizeTimeout))
}

// finish reports the group partial and stops the actor. On a finalization
// error the model updates are gone, but eval-only counts and metrics never
// went through the secure path — report them rather than swallowing, and
// surface the error to the Master Aggregator.
func (a *Aggregator) finish(ctx *actor.Context, errStr string) {
	defer ctx.Stop()
	a.done = true
	res := msgGroupResult{From: ctx.Self, Count: a.acc.Count() + a.evalCount, Metrics: a.metrics, Err: errStr,
		Blamed: a.secBlamed, Phases: a.secPhases, RobustRejected: a.robustRejected}
	if a.acc.Count() > 0 {
		res.Weight = a.acc.Weight()
		sum := make(tensor.Vector, a.dim)
		avg, err := a.acc.Average()
		if err == nil {
			// Reconstruct the raw sum: avg × weight.
			copy(sum, avg)
			sum.Scale(a.acc.Weight())
			res.Sum = sum
		}
	}
	_ = a.master.Send(res)
}

// deviceState tracks one selected device through a round.
type deviceState struct {
	held     heldDevice
	group    actor.Ref
	reported bool
	lost     bool
	aborted  bool
	// configured is set once the device has been sent (or queued) its
	// Configuration payload: from then on it counts toward its secure
	// group's instance size, and not delivering makes it a protocol
	// dropout rather than a no-show.
	configured bool
}

// MasterAggregator manages one round of one FL task (Sec. 4.2): selection
// window, configuration, reporting window with goal count / timeout /
// minimum fraction (Sec. 2.2), per-group Aggregator delegation, and the
// single commit to persistent storage at the end.
type MasterAggregator struct {
	plan      *plan.Plan
	global    *checkpoint.Checkpoint
	store     storage.Store
	coord     actor.Ref
	selectors []actor.Ref
	groupSize int
	// minRuntime, when positive, is the task policy's floor on device
	// runtime versions: older devices are rejected outright instead of
	// being served a version-lowered plan.
	minRuntime int
	now        func() time.Time

	state   string // "selecting", "reporting", "done"
	devices map[string]*deviceState
	order   []string // device ids in arrival order
	aggs    []actor.Ref
	// ingest is the round's striped edge accumulator (non-secure rounds):
	// reader goroutines fold decoded updates straight into its stripes and
	// only fixed-size accounting messages reach this actor.
	ingest *roundIngest
	// robustBuf replaces ingest for per-update robust policies: readers
	// decode each update into a pooled vector and retain it here for the
	// finalize reduce (trimmed mean, median, cosine outlier).
	robustBuf *robust.Buffer
	// clipped counts updates the norm-bound policy clipped at the edge;
	// written by reader goroutines, hence atomic.
	clipped    atomic.Int64
	completed  int
	lost       int
	partials   []msgGroupResult
	startedAt  time.Time
	reportOpen time.Time

	// Round tracer state (obs): per-phase durations recorded at the phase
	// boundaries and materialized as one RoundTrace on commit or failure.
	// configNanos is written by the fan-out completion goroutine, hence
	// atomic; everything else is actor-goroutine-only.
	checkinNanos int64
	configNanos  atomic.Int64
	windowNanos  int64
	finalizeAt   time.Time
	secPhases    map[string]time.Duration
}

// msgStartRound kicks the Master Aggregator off.
type msgStartRound struct{}

// msgCrash exists for failure-injection tests.
type msgCrash struct{}

// NewMasterAggregator returns the behavior for one round. minRuntime > 0
// forbids serving devices whose runtime is older, even via plan lowering
// (the task policy's MinRuntimeVersion).
func NewMasterAggregator(p *plan.Plan, global *checkpoint.Checkpoint, store storage.Store, coord actor.Ref, selectors []actor.Ref, minRuntime int, now func() time.Time) *MasterAggregator {
	if now == nil {
		now = time.Now
	}
	groupSize := 64
	if p.Server.Aggregation == plan.AggregationSecure && p.Server.SecAggGroupSize > 0 {
		groupSize = p.Server.SecAggGroupSize
	}
	return &MasterAggregator{
		plan:       p,
		global:     global,
		store:      store,
		coord:      coord,
		selectors:  selectors,
		groupSize:  groupSize,
		minRuntime: minRuntime,
		now:        now,
		state:      "selecting",
		devices:    make(map[string]*deviceState),
		secPhases:  make(map[string]time.Duration),
	}
}

// Receive implements actor.Behavior.
func (ma *MasterAggregator) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgStartRound:
		ma.onStart(ctx)
	case msgDevices:
		ma.onDevices(ctx, m)
	case msgSelectionTimeout:
		ma.onSelectionTimeout(ctx)
	case msgReportDone:
		ma.noteReportOutcome(ctx, m.DeviceID, m.OK)
	case msgDeviceLost:
		ma.onDeviceLost(m)
	case msgAddResult:
		ma.noteReportOutcome(ctx, m.DeviceID, m.OK)
	case msgReportTimeout:
		ma.onReportTimeout(ctx)
	case msgGroupResult:
		ma.onGroupResult(ctx, m)
	case msgAbandonRound:
		if ma.state != "done" {
			ma.fail(ctx, m.Reason)
		}
	case msgCrash:
		panic("master aggregator crash injected")
	}
}

func (ma *MasterAggregator) onStart(ctx *actor.Context) {
	ma.startedAt = ma.now()
	// Split the round's admit count across the Selectors: each is told how
	// many devices to accept (Sec. 4.2) and to stream them here.
	target := ma.plan.Server.SelectTarget()
	for i, sel := range ma.selectors {
		n := target / len(ma.selectors)
		if i < target%len(ma.selectors) {
			n++
		}
		_ = sel.Send(msgSetQuota{Population: ma.plan.Population, Accept: n})
		_ = sel.Send(msgForwardDevices{Population: ma.plan.Population, N: n, To: ctx.Self})
	}
	self := ctx.Self
	time.AfterFunc(ma.plan.Server.SelectionTimeout, func() { _ = self.Send(msgSelectionTimeout{}) })
}

func (ma *MasterAggregator) onDevices(ctx *actor.Context, m msgDevices) {
	if ma.state != "selecting" {
		for _, d := range m.Devices {
			ma.abortDevice(d, "round already configured")
		}
		return
	}
	for _, d := range m.Devices {
		if _, dup := ma.devices[d.ID]; dup {
			ma.abortDevice(d, "duplicate device")
			continue
		}
		ma.devices[d.ID] = &deviceState{held: d}
		ma.order = append(ma.order, d.ID)
	}
	if len(ma.devices) >= ma.plan.Server.SelectTarget() {
		ma.beginReporting(ctx)
	}
}

func (ma *MasterAggregator) onSelectionTimeout(ctx *actor.Context) {
	if ma.state != "selecting" {
		return
	}
	if len(ma.devices) >= ma.plan.Server.MinReports() {
		ma.beginReporting(ctx)
		return
	}
	ma.fail(ctx, fmt.Sprintf("selection timeout with %d devices (< min %d)",
		len(ma.devices), ma.plan.Server.MinReports()))
}

// versionResp is the memoized Configuration payload for one effective
// runtime version: either a CheckinResponse pre-framed for the wire, or
// the reason devices of that version cannot run the plan.
type versionResp struct {
	enc *transport.Encoded
	err string
}

// configJob is one device's Configuration send, executed on the fan-out
// worker pool; resp is the device's version's shared pre-framed response,
// group the device's assigned group Aggregator (secure rounds report to it
// directly, skipping the master hop).
type configJob struct {
	deviceID string
	conn     transport.Conn
	resp     *transport.Encoded
	group    actor.Ref
}

// reportReader is what a per-device connection reader needs to consume one
// report at the edge: the non-secure path decodes-and-accumulates into the
// round's stripes, the secure path decodes into a pooled buffer delivered
// straight to the device's group Aggregator.
type reportReader struct {
	self     actor.Ref
	dim      int
	secure   bool
	evalOnly bool
	ingest   *roundIngest
	// clip, when positive, is the norm-bound policy's L2 bound on each
	// update's per-example average: over-norm updates are folded through
	// checkpoint.Meta.AccumulateParamsScaled instead of AccumulateParams —
	// still two streaming passes over the wire bytes, still zero O(dim)
	// allocation.
	clip float64
	// buf, when set, is the round's per-update retention buffer: the
	// policy needs individual updates at finalize, so readers decode into
	// pooled vectors instead of folding into stripes.
	buf *robust.Buffer
	// clipped counts edge clips for the round (the Master Aggregator's
	// counter); obsClipped is the task-labeled series, resolved once per
	// round.
	clipped    *atomic.Int64
	obsClipped *obs.Counter
}

// fanoutWorkers sizes the Configuration send pool. Sends block on socket
// I/O more than on CPU, so oversubscribe GOMAXPROCS — but keep the pool
// bounded: each in-flight send holds one frame buffer (O(plan+checkpoint)),
// so the pool size caps transient memory no matter how large the round is.
func fanoutWorkers(jobs int) int {
	w := 4 * runtime.GOMAXPROCS(0)
	if w > 64 {
		w = 64
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// beginReporting is the Configuration phase: spawn group Aggregators, send
// each device its (version-matched) plan and the global checkpoint, and
// start the report window. The per-device sends run on a worker pool off
// the actor goroutine, so one slow or dead socket never stalls the round;
// all bookkeeping stays on the actor, with send failures returning as
// msgDeviceLost.
func (ma *MasterAggregator) beginReporting(ctx *actor.Context) {
	ma.state = "reporting"
	ma.reportOpen = ma.now()
	ma.checkinNanos = ma.reportOpen.Sub(ma.startedAt).Nanoseconds()

	ckptBytes, err := ma.global.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		ma.fail(ctx, "marshal global checkpoint: "+err.Error())
		return
	}
	dim := len(ma.global.Params)
	secure := ma.plan.Server.Aggregation == plan.AggregationSecure

	// Spawn one Aggregator per group of groupSize devices. Rounding the
	// group count up would strand a remainder group of < groupSize devices
	// — in secure mode a trailing group of 1 would previously reach the
	// direct-sum fallback and expose that device's raw update.
	// secagg.GroupSpans folds the remainder into the last full group so no
	// secure group falls below 2 (the Aggregator's singleton refusal
	// backstops the edge where the whole round has one device).
	numGroups := len(secagg.GroupSpans(len(ma.order), ma.groupSize))
	ma.aggs = make([]actor.Ref, numGroups)
	for g := range ma.aggs {
		agg := NewAggregator(dim, secure, ctx.Self)
		agg.threshold = ma.plan.Server.SecAggThreshold
		agg.finalizeTimeout = ma.plan.Server.FinalizeTimeout()
		agg.robustPolicy = ma.plan.Server.Robust
		if ma.plan.Server.Robust.PerUpdate() {
			_, agg.obsRejectedTask, agg.obsTrimmedTask = robustTaskCounters(ma.plan.ID)
		}
		ma.aggs[g] = ctx.Spawn(fmt.Sprintf("%s/agg-%d", ctx.Self.Name(), g), agg)
	}
	if !secure {
		// Per-update robust policies retain decoded updates instead of
		// folding into stripes; plan.Validate guarantees they never pair
		// with secure aggregation.
		if ma.plan.Server.Robust.PerUpdate() {
			ma.robustBuf = robust.NewBuffer(dim)
		} else {
			ma.ingest = newRoundIngest(dim)
		}
	}

	// Build every device's send on the actor goroutine, marshaling the plan
	// and building + pre-framing the CheckinResponse once per distinct
	// *effective* runtime version: every runtime at or above the plan's
	// MinRuntimeVersion executes the plan unchanged and shares one
	// marshaled copy; each older version gets one lowered plan. Pre-framing
	// (transport.Encode) means the multi-MB plan+checkpoint wire frame is
	// built O(versions) per round and the pool workers push the same
	// immutable bytes to every device of a version.
	minV := ma.plan.Device.MinRuntimeVersion
	byVersion := make(map[int]*versionResp)
	deadline := ma.plan.Server.ParticipationCap
	jobs := make([]configJob, 0, len(ma.order))
	for i, id := range ma.order {
		ds := ma.devices[id]
		g := i / ma.groupSize
		if g >= numGroups {
			g = numGroups - 1
		}
		ds.group = ma.aggs[g]

		if ma.minRuntime > 0 && ds.held.RuntimeVersion < ma.minRuntime {
			// The task's policy pins a runtime floor: reject instead of
			// serving a lowered plan the engineer asked us not to serve. The
			// rejection goes out on the bounded response pool — a stalled
			// socket must never block the actor goroutine.
			sendThenClose(ds.held.Conn, protocol.CheckinResponse{Accepted: false,
				Reason: fmt.Sprintf("task %s requires device runtime ≥ %d", ma.plan.ID, ma.minRuntime)})
			ds.lost = true
			ma.lost++
			continue
		}
		v := ds.held.RuntimeVersion
		if v > minV {
			v = minV
		}
		vr, ok := byVersion[v]
		if !ok {
			vr = &versionResp{}
			vp, err := ma.plan.ForVersion(ds.held.RuntimeVersion)
			if err != nil {
				// Devices of this version cannot execute any form of the
				// plan; every one of them is rejected below.
				vr.err = err.Error()
			} else {
				planBytes, err := vp.Marshal()
				planMarshals.Add(1)
				obsPlanMarshals.Inc()
				if err != nil {
					ma.fail(ctx, "marshal plan: "+err.Error())
					return
				}
				vr.enc = transport.Encode(protocol.CheckinResponse{
					Accepted:       true,
					TaskID:         ma.plan.ID,
					Round:          ma.global.Round,
					Plan:           planBytes,
					Checkpoint:     ckptBytes,
					ReportDeadline: deadline,
				})
			}
			byVersion[v] = vr
		}
		if vr.err != "" {
			// Device cannot execute any version of this plan; the rejection
			// rides the bounded response pool, which owns the close — the
			// connection cannot leak even if ma.fail runs first (ds.lost is
			// already set, so fail skips it).
			sendThenClose(ds.held.Conn, protocol.CheckinResponse{Accepted: false, Reason: vr.err})
			ds.lost = true
			ma.lost++
			continue
		}
		ds.configured = true
		jobs = append(jobs, configJob{deviceID: id, conn: ds.held.Conn, resp: vr.enc, group: ds.group})
	}

	self := ctx.Self
	rr := reportReader{
		self:     self,
		dim:      dim,
		secure:   secure,
		evalOnly: ma.plan.Type == plan.TaskEval,
		ingest:   ma.ingest,
		buf:      ma.robustBuf,
	}
	if !secure && ma.plan.Server.Robust.Kind == plan.RobustNormBound {
		rr.clip = ma.plan.Server.Robust.ClipNorm
		rr.clipped = &ma.clipped
		rr.obsClipped, _, _ = robustTaskCounters(ma.plan.ID)
	}
	jobCh := make(chan configJob, len(jobs))
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	var sends sync.WaitGroup
	sends.Add(len(jobs))
	for w := fanoutWorkers(len(jobs)); w > 0; w-- {
		go func() {
			for j := range jobCh {
				if err := j.conn.Send(j.resp); err != nil {
					// A failed Configuration send means a dead peer:
					// release the fd here, then account the loss on the
					// actor.
					_ = j.conn.Close()
					_ = self.Send(msgDeviceLost{DeviceID: j.deviceID})
				} else {
					// One reader goroutine per configured device: the
					// O(dim) decode-and-accumulate happens there, and only
					// fixed-size accounting reaches the actor.
					go rr.read(j.deviceID, j.conn, j.group)
				}
				sends.Done()
			}
		}()
	}

	// The reporting window opens once every device has been sent its
	// configuration (as it did when the sends were serial): a slow fan-out
	// must not eat into the devices' time to report. The wait itself is
	// capped at one ReportTimeout — a peer that checks in and then never
	// drains its socket can block a worker's Send indefinitely (no write
	// deadline), and the round must still time out rather than hang; the
	// eventual fail()/finalize() closes that conn, unblocking the worker.
	reportTimeout := ma.plan.Server.ReportTimeout
	cfgStart := time.Now()
	go func() {
		sent := make(chan struct{})
		go func() {
			sends.Wait()
			close(sent)
		}()
		select {
		case <-sent:
		case <-time.After(reportTimeout):
		}
		// Configure span: fan-out start → every device's plan/checkpoint
		// send done (or the wait cap). Wall clock, not ma.now — the span
		// measures real socket time and is read only by the tracer.
		ma.configNanos.Store(time.Since(cfgStart).Nanoseconds())
		time.AfterFunc(reportTimeout, func() { _ = self.Send(msgReportTimeout{}) })
	}()
}

// read blocks for one device's ReportRequest and consumes it at the edge:
// the O(devices × dim) decode work runs on the per-device reader goroutines
// concurrently, non-secure updates are dequantized straight into one of the
// round's accumulator stripes (zero O(dim) allocation, zero O(dim) mailbox
// hop), and secure updates are decoded into a pooled buffer delivered
// straight to the device's group Aggregator — the Master Aggregator only
// ever sees fixed-size accounting messages.
func (r reportReader) read(deviceID string, conn transport.Conn, group actor.Ref) {
	msg, err := conn.Recv()
	if err != nil {
		_ = conn.Close()
		obsDevicesLost.Inc()
		_ = r.self.Send(msgDeviceLost{DeviceID: deviceID})
		return
	}
	req, ok := msg.(protocol.ReportRequest)
	if !ok {
		_ = conn.Close()
		obsDevicesLost.Inc()
		_ = r.self.Send(msgDeviceLost{DeviceID: deviceID})
		return
	}
	// reject accounts the loss first (fixed-size message to the actor),
	// then answers the device from this goroutine — a stalled peer stalls
	// only its own reader, for at most abortGrace.
	reject := func(reason string) {
		obsReportsRejected.Inc()
		_ = r.self.Send(msgReportDone{DeviceID: deviceID})
		sendWithGrace(conn, protocol.ReportResponse{Accepted: false, Reason: reason})
	}
	// late answers a report that lost the race against the closing of the
	// reporting window (the '#' outcome of Table 1) — no accounting: the
	// round already settled this device's fate.
	late := func() {
		obsReportsLate.Inc()
		sendWithGrace(conn, protocol.ReportResponse{Accepted: false, Reason: "reporting window closed"})
	}
	if req.Aborted {
		reject("device aborted")
		return
	}
	if len(req.Update) == 0 {
		if !r.evalOnly {
			// A training task must carry an update.
			reject("missing update")
			return
		}
		// Metrics-only report (evaluation task).
		if r.secure {
			_ = group.Send(msgAddUpdate{DeviceID: deviceID, Metrics: req.Metrics, Conn: conn})
			return
		}
		if err := r.ingest.stripe().AddEval(req.Metrics); err != nil {
			late()
			return
		}
		obsReportsOK.Inc()
		_ = r.self.Send(msgReportDone{DeviceID: deviceID, OK: true})
		sendWithGrace(conn, protocol.ReportResponse{Accepted: true})
		return
	}
	meta, err := checkpoint.ParseMeta(req.Update)
	if err != nil {
		reject("bad update: " + err.Error())
		return
	}
	if meta.NumParams != r.dim {
		reject(fmt.Sprintf("update dim %d, want %d", meta.NumParams, r.dim))
		return
	}
	if meta.Weight <= 0 {
		reject("non-positive weight")
		return
	}
	if r.secure {
		// Decode delta‖weight into a pooled buffer; the group Aggregator
		// (which must keep per-device vectors for the secagg run) owns it
		// from here and recycles it after the protocol consumes it.
		buf := getParamBuf(r.dim + 1)
		if err := meta.DecodeParams(req.Update, buf[:r.dim]); err != nil {
			putParamBuf(buf)
			reject("bad update: " + err.Error())
			return
		}
		buf[r.dim] = meta.Weight
		_ = group.Send(msgAddUpdate{DeviceID: deviceID, Input: buf, Metrics: req.Metrics, Conn: conn})
		return
	}
	if r.buf != nil {
		// Per-update retention (trimmed mean / median / cosine): decode
		// into a pooled vector the robust reduce consumes at finalize.
		// Acceptance means "buffered" — a later defensive trim or rejection
		// is the server's business, attributed in msgRoundComplete.
		err = r.buf.Add(deviceID, meta.Weight, req.Metrics, func(dst tensor.Vector) error {
			return meta.DecodeParams(req.Update, dst)
		})
		switch {
		case errors.Is(err, robust.ErrBufferClosed):
			late()
		case err != nil:
			reject(err.Error())
		default:
			obsReportsOK.Inc()
			_ = r.self.Send(msgReportDone{DeviceID: deviceID, OK: true})
			sendWithGrace(conn, protocol.ReportResponse{Accepted: true})
		}
		return
	}
	// Decode-and-accumulate at the edge: the wire bytes are folded
	// (dequantized, for Quant8) straight into a stripe of the round
	// accumulator, under that stripe's lock — no intermediate vector.
	// A norm-bound policy first measures the update's streaming norm; an
	// over-norm update is folded pre-scaled (two passes over the wire
	// bytes, still no intermediate vector).
	fold := func(sum tensor.Vector) error {
		return meta.AccumulateParams(req.Update, sum)
	}
	if r.clip > 0 {
		if scale := robust.ClipScale(meta.ParamNorm(req.Update), meta.Weight, r.clip); scale < 1 {
			fold = func(sum tensor.Vector) error {
				if err := meta.AccumulateParamsScaled(req.Update, sum, scale); err != nil {
					return err
				}
				// Counted inside the fold, under the stripe lock: a seal
				// drains the stripes under the same locks, so its Clipped
				// snapshot can never miss a clip whose fold is already in
				// the sum (clips == clipped folds, exactly).
				r.clipped.Add(1)
				obsRobustClipped.Inc()
				r.obsClipped.Inc()
				return nil
			}
		}
	}
	err = r.ingest.stripe().Accumulate(meta.Weight, req.Metrics, fold)
	switch {
	case errors.Is(err, fedavg.ErrPartialClosed):
		late()
	case err != nil:
		reject(err.Error())
	default:
		obsReportsOK.Inc()
		obsEdgeFolds.Inc()
		_ = r.self.Send(msgReportDone{DeviceID: deviceID, OK: true})
		sendWithGrace(conn, protocol.ReportResponse{Accepted: true})
	}
}

func (ma *MasterAggregator) noteReportOutcome(ctx *actor.Context, deviceID string, ok bool) {
	ds, exists := ma.devices[deviceID]
	if !exists || ds.reported || ds.lost || ds.aborted {
		return
	}
	if !ok {
		ds.lost = true
		ma.lost++
		return
	}
	ds.reported = true
	ma.completed++
	if ma.state == "reporting" && ma.completed >= ma.plan.Server.TargetDevices {
		ma.finalize(ctx)
	}
}

func (ma *MasterAggregator) onDeviceLost(m msgDeviceLost) {
	ds, ok := ma.devices[m.DeviceID]
	if !ok || ds.reported || ds.lost || ds.aborted {
		return
	}
	ds.lost = true
	ma.lost++
}

func (ma *MasterAggregator) onReportTimeout(ctx *actor.Context) {
	if ma.state != "reporting" {
		return
	}
	// ma.completed lags the edge folds by one mailbox hop (the reader folds
	// into a stripe, then posts msgReportDone); a report that already
	// landed in a stripe must count toward the minimum even if its
	// accounting message is still queued — failing the round here would
	// discard updates whose devices were told "accepted".
	reports := ma.completed
	if ma.ingest != nil {
		if n := ma.ingest.reports(); n > reports {
			reports = n
		}
	}
	if ma.robustBuf != nil {
		if n := ma.robustBuf.Reports(); n > reports {
			reports = n
		}
	}
	if reports >= ma.plan.Server.MinReports() {
		ma.finalize(ctx)
		return
	}
	ma.fail(ctx, fmt.Sprintf("report timeout with %d reports (< min %d)",
		reports, ma.plan.Server.MinReports()))
}

// abortGrace bounds how long an over-selected device gets to take delivery
// of its Abort message before its connection is torn down regardless.
const abortGrace = 5 * time.Second

// finalize closes the reporting window, seals the edge-accumulation
// stripes and deals them out to the group Aggregators for merging, and
// aborts devices that are no longer needed.
func (ma *MasterAggregator) finalize(ctx *actor.Context) {
	ma.state = "collecting"
	ma.finalizeAt = ma.now()
	ma.windowNanos = ma.finalizeAt.Sub(ma.reportOpen).Nanoseconds()
	// Seal the stripes BEFORE handing them to the Aggregators: a reader
	// racing the window close gets ErrPartialClosed and answers its device
	// "window closed" instead of folding into a stripe mid-merge.
	var stripes []*fedavg.PartialAccumulator
	if ma.ingest != nil {
		ma.ingest.close()
		stripes = ma.ingest.stripes
	}
	// Seal the retention buffer the same way: a reader racing the close
	// gets ErrBufferClosed and answers "window closed" instead of slipping
	// an update past the robust reduce.
	if ma.robustBuf != nil {
		ma.robustBuf.Close()
	}
	// Hand every group its configured-device list: secure groups size their
	// secagg instance by assignment, so devices that never delivered —
	// dead connections, stragglers about to be aborted below — enter the
	// protocol as real dropouts instead of silently shrinking the group.
	assigned := make([][]string, len(ma.aggs))
	for i, id := range ma.order {
		if !ma.devices[id].configured {
			continue
		}
		g := i / ma.groupSize
		if g >= len(ma.aggs) {
			g = len(ma.aggs) - 1
		}
		assigned[g] = append(assigned[g], id)
	}
	for i, agg := range ma.aggs {
		fin := msgFinalizeGroup{Assigned: assigned[i]}
		if i == 0 {
			// The robust reduce is an order statistic over the whole
			// cohort — it cannot be striped — so the single retention
			// buffer goes to one group.
			fin.Robust = ma.robustBuf
		}
		for j := i; j < len(stripes); j += len(ma.aggs) {
			fin.Stripes = append(fin.Stripes, stripes[j])
		}
		_ = agg.Send(fin)
	}
	// Abort devices that have not reported: the round no longer needs them
	// (Fig. 7 "aborted"). The sends ride the bounded response pool: an
	// unreported device may still have a configuration send in flight on a
	// stuck socket, and its conn's send lock would block the actor forever.
	// Close always happens — after the Abort is delivered, or after the
	// grace period — which also unblocks any fan-out worker wedged on the
	// same connection.
	abort := protocol.Abort{TaskID: ma.plan.ID, Round: ma.global.Round, Reason: "enough devices completed"}
	for _, id := range ma.order {
		ds := ma.devices[id]
		if !ds.reported && !ds.lost {
			ds.aborted = true
			sendThenClose(ds.held.Conn, abort)
		}
	}
}

func (ma *MasterAggregator) onGroupResult(ctx *actor.Context, m msgGroupResult) {
	if ma.state != "collecting" {
		return
	}
	ma.partials = append(ma.partials, m)
	if len(ma.partials) < len(ma.aggs) {
		return
	}
	// Edge-accumulate span: window close → last group partial collected
	// (stripe drain + merge + any secagg runs; the secagg sub-spans below
	// break the secure part out).
	edgeNanos := ma.now().Sub(ma.finalizeAt).Nanoseconds()

	// All partials in: merge (the Master Aggregator's final, non-secure
	// combination of intermediate sums, Sec. 6).
	dim := len(ma.global.Params)
	acc := fedavg.NewAccumulator(dim)
	metricVals := make(map[string][]float64)
	evalOnly := ma.plan.Type == plan.TaskEval
	reports := 0
	var groupErrs, blamed, robustRejected []string
	for _, p := range ma.partials {
		if p.Err != "" {
			groupErrs = append(groupErrs, p.Err)
		}
		blamed = append(blamed, p.Blamed...)
		robustRejected = append(robustRejected, p.RobustRejected...)
		// Groups finalize concurrently, so the round's secagg phase cost is
		// the slowest group's — max-merge, don't sum.
		for name, d := range p.Phases {
			if d > ma.secPhases[name] {
				ma.secPhases[name] = d
			}
		}
		// Metrics flow regardless of finalization errors: they never went
		// through the secure path and describe reports that did complete.
		for name, vs := range p.Metrics {
			metricVals[name] = append(metricVals[name], vs...)
		}
		if p.Count == 0 {
			continue
		}
		reports += p.Count
		if !evalOnly && len(p.Sum) > 0 {
			if err := acc.AddRaw(p.Sum, p.Weight, p.Count); err != nil {
				ma.fail(ctx, "merge: "+err.Error())
				return
			}
		}
	}
	aborted := 0
	for _, ds := range ma.devices {
		if !ds.reported && !ds.lost {
			aborted++
		}
	}
	ma.state = "done"
	ma.settler().Settle(RoundOutcome{
		Start:          ma.startedAt,
		Acc:            acc,
		Reports:        reports,
		Metrics:        metricVals,
		Lost:           ma.lost,
		Aborted:        aborted,
		Phases:         ma.phases(edgeNanos),
		GroupErrors:    groupErrs,
		Blamed:         blamed,
		RobustRejected: robustRejected,
		Clipped:        int(ma.clipped.Load()),
	})
	ctx.Stop()
}

// settler is the round's shared commit path.
func (ma *MasterAggregator) settler() RoundSettler {
	return RoundSettler{Plan: ma.plan, Global: ma.global, Store: ma.store, Coord: ma.coord, Now: ma.now}
}

// phases collects the round's trace spans measured so far; edgeNanos is
// zero for a round that failed before its window closed.
func (ma *MasterAggregator) phases(edgeNanos int64) map[string]int64 {
	phases := map[string]int64{
		obs.PhaseCheckin:        ma.checkinNanos,
		obs.PhaseConfigure:      ma.configNanos.Load(),
		obs.PhaseReportWindow:   ma.windowNanos,
		obs.PhaseEdgeAccumulate: edgeNanos,
	}
	for name, d := range ma.secPhases {
		key := "secagg_" + name
		if strings.HasPrefix(name, "robust_") {
			// The robust reduce reports through the same per-group phase
			// channel but is not a secagg phase.
			key = name
		}
		phases[key] = d.Nanoseconds()
	}
	return phases
}

func (ma *MasterAggregator) fail(ctx *actor.Context, reason string) {
	ma.state = "done"
	if ma.ingest != nil {
		// Seal the stripes: readers still in flight get ErrPartialClosed
		// rather than folding into an abandoned round.
		ma.ingest.close()
	}
	if ma.robustBuf != nil {
		ma.robustBuf.Close()
	}
	for _, ds := range ma.devices {
		if !ds.reported && !ds.lost {
			_ = ds.held.Conn.Close()
		}
	}
	for _, agg := range ma.aggs {
		agg.Stop()
	}
	ma.settler().Fail(RoundOutcome{Start: ma.startedAt, Reports: ma.completed, Lost: ma.lost, Phases: ma.phases(0)}, reason)
	ctx.Stop()
}

func (ma *MasterAggregator) abortDevice(d heldDevice, reason string) {
	sendThenClose(d.Conn, protocol.CheckinResponse{Accepted: false, Reason: reason})
}

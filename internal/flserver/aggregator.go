package flserver

import (
	"fmt"
	"sort"
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
	"repro/internal/transport"
)

// planMarshals counts plan.Marshal calls made during Configuration,
// process-wide. Tests and BenchmarkRoundThroughput read the delta across a
// round to assert marshals stay O(distinct runtime versions), not O(devices).
var planMarshals atomic.Int64

// deviceState tracks one selected device through a round (a Master
// Aggregator's or an EdgeRound's).
type deviceState struct {
	held     heldDevice
	reported bool
	lost     bool
	aborted  bool
	// claim decides who answers the device: its report reader or the
	// window close (see reportReader.read).
	claim atomic.Bool
}

// claimUnanswered takes the answer claim of a device that has neither
// reported nor been lost, for the window close to answer it. It fails when
// the device's reader claimed its report first.
func (ds *deviceState) claimUnanswered() bool {
	return !ds.reported && !ds.lost && ds.claim.CompareAndSwap(false, true)
}

// MasterAggregator manages one round of one FL task (Sec. 4.2): selection
// window, configuration, reporting window with goal count / timeout /
// minimum fraction (Sec. 2.2), and the single commit to persistent storage
// at the end. Report readers do the per-device aggregation work at the
// edge, so the window closes through one of three paths: plaintext rounds
// seal the round's stripes, per-update robust rounds reduce the retention
// buffer, and secure rounds run one Secure Aggregation instance per group
// over the retained inputs (closeSecure).
type MasterAggregator struct {
	plan      *plan.Plan
	global    *checkpoint.Checkpoint
	store     storage.Store
	coord     actor.Ref
	selectors []actor.Ref
	// minRuntime, when positive, is the task policy's floor on device
	// runtime versions: older devices are rejected outright instead of
	// being served a version-lowered plan.
	minRuntime int
	now        func() time.Time

	state   string // "selecting", "reporting", "collecting", "done"
	devices map[string]*deviceState
	order   []string // device ids in arrival order
	// ingest is the round's striped edge accumulator (plaintext rounds):
	// reader goroutines fold decoded updates straight into its stripes and
	// only fixed-size accounting messages reach this actor.
	ingest *roundIngest
	// retained replaces ingest when the window close needs individual
	// updates — per-update robust policies (trimmed mean, median, cosine)
	// and secure aggregation: readers decode each update into a pooled
	// vector kept here.
	retained *robust.Buffer
	// groups lists each secure group's configured devices, in arrival
	// order (secure rounds only).
	groups [][]string
	// clipped counts updates the norm-bound policy clipped at the edge;
	// written by reader goroutines, hence atomic.
	clipped    atomic.Int64
	completed  int
	lost       int
	aborted    int
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
}

// msgStartRound kicks the Master Aggregator off.
type msgStartRound struct{}

// msgCrash exists for failure-injection tests.
type msgCrash struct{}

// msgWindowClosed carries a closed reporting window's merged result back to
// the Master Aggregator (secure rounds close off the actor goroutine).
type msgWindowClosed struct {
	Outcome RoundOutcome
}

// NewMasterAggregator returns the behavior for one round. minRuntime > 0
// forbids serving devices whose runtime is older, even via plan lowering
// (the task policy's MinRuntimeVersion).
func NewMasterAggregator(p *plan.Plan, global *checkpoint.Checkpoint, store storage.Store, coord actor.Ref, selectors []actor.Ref, minRuntime int, now func() time.Time) *MasterAggregator {
	if now == nil {
		now = time.Now
	}
	return &MasterAggregator{
		plan:       p,
		global:     global,
		store:      store,
		coord:      coord,
		selectors:  selectors,
		minRuntime: minRuntime,
		now:        now,
		state:      "selecting",
		devices:    make(map[string]*deviceState),
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
		ma.noteReportOutcome(ctx, m.DeviceID, false)
	case msgReportTimeout:
		ma.onReportTimeout(ctx)
	case msgWindowClosed:
		if ma.state == "collecting" {
			ma.settle(ctx, m.Outcome)
		}
	case msgAbandonRound:
		if ma.state != "done" {
			ma.fail(ctx, m.Reason)
		}
	case msgCrash:
		panic("master aggregator crash injected")
	}
}

// requestDevices splits a round's admit count across the Selectors (the
// remainder to the first ones) and tells each how many devices to accept
// (Sec. 4.2) and to stream them to the round as they check in.
func requestDevices(selectors []actor.Ref, population string, admit int, round actor.Ref, send func(actor.Ref, actor.Message)) {
	for i, sel := range selectors {
		n := admit / len(selectors)
		if i < admit%len(selectors) {
			n++
		}
		send(sel, msgSetQuota{Population: population, Accept: n, Round: round})
		send(sel, msgForwardDevices{Population: population, N: n, To: round})
	}
}

func (ma *MasterAggregator) secure() bool {
	return ma.plan.Server.Aggregation == plan.AggregationSecure
}

func (ma *MasterAggregator) onStart(ctx *actor.Context) {
	ma.startedAt = ma.now()
	requestDevices(ma.selectors, ma.plan.Population, ma.plan.Server.SelectTarget(), ctx.Self,
		func(sel actor.Ref, msg actor.Message) { _ = sel.Send(msg) })
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

// beginReporting is the Configuration phase: send each device its
// (version-matched) plan and the global checkpoint, and start the report
// window. The per-device sends run on the shared fan-out pool off the
// actor goroutine, so one slow or dead socket never stalls the round; all
// bookkeeping stays on the actor, with send failures returning as
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
	rr := reportReader{self: ctx.Self, dim: dim, evalOnly: ma.plan.Type == plan.TaskEval}
	switch {
	case ma.secure():
		ma.retained = robust.NewBuffer(dim + 1)
		rr.buf, rr.withWeight = ma.retained, true
	case ma.plan.Server.Robust.PerUpdate():
		ma.retained = robust.NewBuffer(dim)
		rr.buf = ma.retained
	default:
		ma.ingest = newRoundIngest(dim)
		rr.ingest = ma.ingest
		if ma.plan.Server.Robust.Kind == plan.RobustNormBound {
			rr.clip = ma.plan.Server.Robust.ClipNorm
			rr.clipped = &ma.clipped
			rr.obsClipped, _, _ = robustTaskCounters(ma.plan.ID)
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
	if n := len(secagg.GroupSpans(len(ma.order), ma.plan.Server.SecAggGroupSize)); ma.secure() && n > 0 {
		// Deal devices into groups of SecAggGroupSize (plan.Validate
		// guarantees ≥ 2) in arrival order. secagg.GroupSpans folds a
		// remainder into the last full group, so no secure group falls
		// below 2 (the singleton refusal in runSecureGroup backstops a
		// one-device round). A group's instance is sized by its configured
		// devices: those that never deliver — dead connections, stragglers
		// aborted at window close — enter the protocol as real dropouts
		// instead of silently shrinking the group.
		ma.groups = make([][]string, n)
	}
	for i, id := range ma.order {
		ds := ma.devices[id]
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
		if ma.groups != nil {
			g := min(i/ma.plan.Server.SecAggGroupSize, len(ma.groups)-1)
			ma.groups[g] = append(ma.groups[g], id)
		}
		jobs = append(jobs, configJob{deviceID: id, conn: ds.held.Conn, resp: vr.enc, claim: &ds.claim})
	}

	// The reporting window opens once every device has been sent its
	// configuration: a slow fan-out must not eat into the devices' time to
	// report. The wait is capped at one ReportTimeout (see fanOut).
	self := ctx.Self
	reportTimeout := ma.plan.Server.ReportTimeout
	fanOut(jobs, rr, reportTimeout, func(d time.Duration) {
		// Configure span: fan-out start → every device's plan/checkpoint
		// send done (or the wait cap). Wall clock, not ma.now — the span
		// measures real socket time and is read only by the tracer.
		ma.configNanos.Store(d.Nanoseconds())
		time.AfterFunc(reportTimeout, func() { _ = self.Send(msgReportTimeout{}) })
	})
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

func (ma *MasterAggregator) onReportTimeout(ctx *actor.Context) {
	if ma.state != "reporting" {
		return
	}
	// ma.completed lags the edge by one mailbox hop (the reader folds or
	// retains, then posts msgReportDone); a report that already landed must
	// count toward the minimum even if its accounting message is still
	// queued — failing the round here would discard updates whose devices
	// were told "accepted".
	reports := ma.completed
	if ma.ingest != nil {
		reports = max(reports, ma.ingest.reports())
	}
	if ma.retained != nil {
		reports = max(reports, ma.retained.Reports())
	}
	if reports >= ma.plan.Server.MinReports() {
		ma.finalize(ctx)
		return
	}
	ma.fail(ctx, fmt.Sprintf("report timeout with %d reports (< min %d)",
		reports, ma.plan.Server.MinReports()))
}

// finalize closes the reporting window: devices that have not reported are
// aborted (Fig. 7 "aborted"), the round's stripes or retention buffer are
// sealed, and the window's merged result settles the round — at once for
// plaintext and robust rounds, after the secure groups' runs for secure
// ones.
func (ma *MasterAggregator) finalize(ctx *actor.Context) {
	ma.state = "collecting"
	ma.finalizeAt = ma.now()
	ma.windowNanos = ma.finalizeAt.Sub(ma.reportOpen).Nanoseconds()
	// A device whose reader already claimed its report is answered by that
	// reader (acked when it folds before the seal below, "window closed"
	// when it does not), never also aborted. The aborts ride the bounded
	// response pool: an unreported device may still have a configuration
	// send in flight on a stuck socket, and its conn's send lock would block
	// the actor forever. Close always happens — after the Abort is
	// delivered, or after the grace period — which also unblocks any fan-out
	// worker wedged on the same connection.
	abort := protocol.Abort{TaskID: ma.plan.ID, Round: ma.global.Round, Reason: "enough devices completed"}
	for _, id := range ma.order {
		ds := ma.devices[id]
		if ds.claimUnanswered() {
			ds.aborted = true
			ma.aborted++
			sendThenClose(ds.held.Conn, abort)
		}
	}
	dim := len(ma.global.Params)
	switch {
	case ma.secure():
		ma.retained.Close()
		p, buf, groups, self := groupParams(ma.plan.Server, dim), ma.retained, ma.groups, ctx.Self
		go func() { _ = self.Send(msgWindowClosed{Outcome: closeSecure(p, buf, groups)}) }()
	case ma.retained != nil:
		ma.settle(ctx, ma.reduceRetained(dim))
	default:
		o, err := ma.ingest.seal(dim)
		if err != nil {
			ma.fail(ctx, "merge stripes: "+err.Error())
			return
		}
		ma.settle(ctx, o)
	}
}

// groupParams is what every secure group of a round shares, from the
// task's server plan: the Shamir threshold and the finalization watchdog.
func groupParams(s plan.ServerPlan, dim int) secureParams {
	return secureParams{dim: dim, threshold: s.SecAggThreshold, timeout: s.FinalizeTimeout()}
}

// reduceRetained is a per-update robust round's window close: the policy's
// order statistic or outlier filter over every retained update of the round
// (it cannot be striped). Result vectors never alias the pooled update
// vectors, so those are released at once.
func (ma *MasterAggregator) reduceRetained(dim int) RoundOutcome {
	updates, evalCount, metrics := ma.retained.Drain()
	start := time.Now()
	res := robust.Reduce(ma.plan.Server.Robust, dim, updates)
	reduceTime := time.Since(start)
	robust.Release(updates)
	out := RoundOutcome{Acc: fedavg.NewAccumulator(dim), Reports: evalCount, Metrics: metrics,
		Phases: map[string]int64{"robust_reduce": reduceTime.Nanoseconds()}}
	for _, rej := range res.Rejected {
		out.RobustRejected = append(out.RobustRejected, rej.Device+": "+rej.Reason)
	}
	sort.Strings(out.RobustRejected)
	_, rejectedTask, trimmedTask := robustTaskCounters(ma.plan.ID)
	obsRobustRejected.Add(int64(len(res.Rejected)))
	obsRobustTrimmed.Add(res.Trimmed)
	rejectedTask.Add(int64(len(res.Rejected)))
	trimmedTask.Add(res.Trimmed)
	if res.Count > 0 {
		if err := out.Acc.AddRaw(res.Sum, res.Weight, res.Count); err != nil {
			out.GroupErrors = append(out.GroupErrors, "robust reduce: "+err.Error())
		} else {
			out.Reports += res.Count
		}
	}
	return out
}

// settle completes a closed window's outcome with the round's accounting
// and trace and hands it to the shared commit path.
func (ma *MasterAggregator) settle(ctx *actor.Context, o RoundOutcome) {
	// Edge-accumulate span: window close → merged result (stripe seal,
	// robust reduce or secure groups; the secagg_* and robust_reduce spans
	// break the latter two out).
	phases := ma.phases(ma.now().Sub(ma.finalizeAt).Nanoseconds())
	for name, ns := range o.Phases {
		phases[name] = ns
	}
	o.Phases = phases
	o.Start = ma.startedAt
	o.Lost = ma.lost
	o.Clipped = int(ma.clipped.Load())
	o.Aborted = ma.aborted
	ma.state = "done"
	ma.settler().Settle(o)
	ctx.Stop()
}

// settler is the round's shared commit path.
func (ma *MasterAggregator) settler() RoundSettler {
	return RoundSettler{Plan: ma.plan, Global: ma.global, Store: ma.store, Coord: ma.coord, Now: ma.now}
}

// phases collects the round's trace spans measured so far; edgeNanos is
// zero for a round that failed before its window closed.
func (ma *MasterAggregator) phases(edgeNanos int64) map[string]int64 {
	return map[string]int64{
		obs.PhaseCheckin:        ma.checkinNanos,
		obs.PhaseConfigure:      ma.configNanos.Load(),
		obs.PhaseReportWindow:   ma.windowNanos,
		obs.PhaseEdgeAccumulate: edgeNanos,
	}
}

func (ma *MasterAggregator) fail(ctx *actor.Context, reason string) {
	ma.state = "done"
	// Seal the stripes or buffer: readers still in flight get a closed
	// error rather than folding into an abandoned round.
	if ma.ingest != nil {
		ma.ingest.close()
	}
	if ma.retained != nil {
		ma.retained.Close()
	}
	for _, ds := range ma.devices {
		if ds.claimUnanswered() {
			_ = ds.held.Conn.Close()
		}
	}
	ma.settler().Fail(RoundOutcome{Start: ma.startedAt, Reports: ma.completed, Lost: ma.lost, Phases: ma.phases(0)}, reason)
	ctx.Stop()
}

func (ma *MasterAggregator) abortDevice(d heldDevice, reason string) {
	sendThenClose(d.Conn, protocol.CheckinResponse{Accepted: false, Reason: reason})
}

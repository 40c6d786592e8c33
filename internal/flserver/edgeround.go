package flserver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// EdgeRoundConfig configures one shard-local round: a selector process runs
// the whole device-facing protocol at the edge — configuration fan-out,
// decode-and-accumulate into stripes — and ships exactly one sealed stripe
// upstream when the round closes. Device connections never cross the
// process boundary; only the seal does.
type EdgeRoundConfig struct {
	Population string
	TaskID     string
	Round      int64
	// PlanBytes / Checkpoint are served to devices verbatim: in sharded
	// mode the coordinator marshals them once and every shard fans out the
	// same bytes (single plan version — per-version lowering is a
	// single-process feature, documented in DESIGN.md).
	PlanBytes  []byte
	Checkpoint []byte
	// Dim is the model parameter count (sizes the accumulator stripes).
	Dim int
	// Target is this shard's share of the round's device target; reaching
	// it seals the stripe early.
	Target int
	// Admit is how many devices to request from the Selectors
	// (over-selection, Sec. 2.2); 0 defaults to Target.
	Admit    int
	EvalOnly bool
	// ReportDeadline is echoed to devices in their CheckinResponse.
	ReportDeadline time.Duration
	// ReportTimeout bounds the reporting window; at expiry the round seals
	// with whatever reports it holds (the coordinator enforces the global
	// minimum across shards).
	ReportTimeout time.Duration
	// ClipNorm, when positive, applies the norm-bound robust policy at this
	// shard's edge: each report's per-example-average L2 norm is bounded
	// before it folds into a stripe. Clipping is per-update, so it
	// distributes across shards; the seal carries the clip count upstream.
	ClipNorm float64
	// Linger is how long the sealed (or abandoned) round stays alive to
	// answer stragglers with explicit aborts before stopping itself
	// (default defaultEdgeRoundLinger). Devices arriving inside the window
	// get a protocol.Abort; after it, the Selectors' quota revocation has
	// drained and check-ins fall back to clean steering rejections.
	Linger time.Duration
}

// EdgeSeal is an edge round's result: the shard's merged stripe plus the
// loss accounting the coordinator folds into round totals. It is what
// crosses the selector→coordinator wire (as a protocol.StripeSeal).
type EdgeSeal struct {
	Population string
	TaskID     string
	Round      int64
	Seal       fedavg.SealedStripe
	Lost       int
	Aborted    int
	// Clipped counts reports the norm-bound policy clipped at this shard.
	Clipped int64
	// Phases maps round-lifecycle phase name (obs.PhaseConfigure etc.) to
	// wall nanoseconds this shard spent in it. The coordinator max-merges
	// the per-shard maps into the round trace: the fleet-wide cost of a
	// phase is its slowest shard.
	Phases map[string]int64
}

// msgEdgeStart kicks off a spawned edge round.
type msgEdgeStart struct{}

// defaultEdgeRoundLinger is how long a sealed (or abandoned) edge round
// stays alive to answer stragglers before stopping itself, when the config
// leaves Linger zero. A Selector that accepted a device just before
// processing the seal's quota revocation has already enqueued it here;
// stopping immediately would drop that message — and with it the device's
// connection, never answered and never closed. The linger only needs to
// outlast the Selectors' mailbox backlog at seal time, so a couple of
// seconds is far beyond safe.
const defaultEdgeRoundLinger = 2 * time.Second

// msgEdgeFinalize is the coordinator-forced window close (it saw enough
// reports across all shards, or the round deadline passed): seal and ship
// whatever this shard holds.
type msgEdgeFinalize struct{}

// EdgeRound runs one round's device-facing half on a selector shard: it
// requests devices from the shard's local Selectors, streams each arrival
// its configuration (the pre-framed plan+checkpoint response, built once),
// lets per-connection readers decode-and-accumulate reports into this
// round's stripes, and — on target, timeout, or coordinator order — merges
// the stripes into a single fedavg.SealedStripe handed to ship. It reuses
// the single-process round machinery (fanOut, reportReader, roundIngest,
// sendThenClose) so the edge path is identical in both deployments; only
// who merges the seal differs.
type EdgeRound struct {
	cfg       EdgeRoundConfig
	selectors []actor.Ref
	ship      func(EdgeSeal)

	ingest    *roundIngest
	resp      *transport.Encoded
	devices   map[string]*deviceState
	completed int
	lost      int
	sealed    bool
	// topUpAt round-robins replacement-quota requests across Selectors.
	topUpAt int
	// out carries every message to the Selectors (quota, forward, top-up,
	// revocation) in order without blocking the actor.
	out outbox

	// startAt anchors the report-window span; checkinNanos is the wait for
	// the first device batch (round start → the Selectors delivering);
	// configNanos accumulates the configuration fan-out wall time across
	// device batches (written by the fan-out completion goroutines, read at
	// seal time).
	startAt      time.Time
	checkinNanos int64
	configNanos  atomic.Int64

	// clipped counts norm-bound edge clips (written by reader goroutines);
	// obsClipped is the task-labeled series, resolved once at start.
	clipped    atomic.Int64
	obsClipped *obs.Counter
}

// NewEdgeRound returns the behavior for one shard-local round. ship runs on
// the actor goroutine and must not block (hand the seal to a peer link or a
// channel).
func NewEdgeRound(cfg EdgeRoundConfig, selectors []actor.Ref, ship func(EdgeSeal)) *EdgeRound {
	if cfg.Target < 1 {
		cfg.Target = 1
	}
	if cfg.Admit < cfg.Target {
		cfg.Admit = cfg.Target
	}
	if cfg.ReportTimeout <= 0 {
		cfg.ReportTimeout = 30 * time.Second
	}
	if cfg.Linger <= 0 {
		cfg.Linger = defaultEdgeRoundLinger
	}
	return &EdgeRound{
		cfg:       cfg,
		selectors: selectors,
		ship:      ship,
		devices:   make(map[string]*deviceState),
	}
}

// Receive implements actor.Behavior.
func (er *EdgeRound) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgEdgeStart:
		er.start(ctx)
	case msgDevices:
		er.onDevices(ctx, m)
	case msgReportDone:
		er.noteOutcome(ctx, m.DeviceID, m.OK)
	case msgDeviceLost:
		er.noteOutcome(ctx, m.DeviceID, false)
	case msgReportTimeout:
		er.seal(ctx)
	case msgEdgeFinalize:
		er.seal(ctx)
	case msgAbandonRound:
		er.abandon(ctx, m.Reason)
	}
}

// start asks the local Selectors for devices and opens the reporting
// window. The device-facing response frame is encoded once here and shared
// by every configuration send.
func (er *EdgeRound) start(ctx *actor.Context) {
	er.startAt = time.Now()
	er.ingest = newRoundIngest(er.cfg.Dim)
	if er.cfg.ClipNorm > 0 {
		er.obsClipped, _, _ = robustTaskCounters(er.cfg.TaskID)
	}
	er.resp = transport.Encode(protocol.CheckinResponse{
		Accepted:       true,
		TaskID:         er.cfg.TaskID,
		Round:          er.cfg.Round,
		Plan:           er.cfg.PlanBytes,
		Checkpoint:     er.cfg.Checkpoint,
		ReportDeadline: er.cfg.ReportDeadline,
	})

	requestDevices(er.selectors, er.cfg.Population, er.cfg.Admit, ctx.Self, er.out.send)

	self := ctx.Self
	time.AfterFunc(er.cfg.ReportTimeout, func() { _ = self.Send(msgReportTimeout{}) })
}

// onDevices configures a batch of forwarded devices through the shared
// fan-out: the pre-framed response goes out on a bounded worker pool (a
// dead socket must never stall the actor), and each successful send hands
// the connection to a reportReader goroutine that consumes the report at
// the edge.
func (er *EdgeRound) onDevices(ctx *actor.Context, m msgDevices) {
	if er.sealed {
		for _, d := range m.Devices {
			sendThenClose(d.Conn, protocol.Abort{TaskID: er.cfg.TaskID, Round: er.cfg.Round, Reason: "round sealed"})
		}
		return
	}
	if er.checkinNanos == 0 && len(m.Devices) > 0 {
		er.checkinNanos = time.Since(er.startAt).Nanoseconds()
	}
	jobs := make([]configJob, 0, len(m.Devices))
	dups := 0
	for _, d := range m.Devices {
		if _, dup := er.devices[d.ID]; dup {
			// A device this round already configured checked in again (it
			// completed — or lost its connection — and redialed while the
			// window is still open). Reject it and hand the quota slot back,
			// or completed devices would burn the admit budget below the
			// seal target and stall the round to its timeout.
			dups++
			sendThenClose(d.Conn, protocol.CheckinResponse{
				Accepted: false, Reason: "already participating in this round",
			})
			continue
		}
		dev := &deviceState{held: d}
		er.devices[d.ID] = dev
		jobs = append(jobs, configJob{deviceID: d.ID, conn: d.Conn, resp: er.resp, claim: &dev.claim})
	}
	er.topUp(ctx, dups)
	if len(jobs) == 0 {
		return
	}
	rr := reportReader{
		self:     ctx.Self,
		dim:      er.cfg.Dim,
		evalOnly: er.cfg.EvalOnly,
		ingest:   er.ingest,
	}
	if er.cfg.ClipNorm > 0 {
		rr.clip = er.cfg.ClipNorm
		rr.clipped = &er.clipped
		rr.obsClipped = er.obsClipped
	}
	fanOut(jobs, rr, er.cfg.ReportTimeout, func(d time.Duration) { er.configNanos.Add(d.Nanoseconds()) })
}

func (er *EdgeRound) noteOutcome(ctx *actor.Context, deviceID string, ok bool) {
	d, exists := er.devices[deviceID]
	if !exists || d.reported || d.lost {
		return
	}
	if !ok {
		d.lost = true
		er.lost++
		er.topUp(ctx, 1)
		return
	}
	d.reported = true
	er.completed++
	if !er.sealed && er.completed >= er.cfg.Target {
		er.seal(ctx)
	}
}

// topUp asks a Selector (round-robin) for n replacement devices after
// admitted ones dropped out of the round, keeping the number of devices
// that can still complete at the admit target.
func (er *EdgeRound) topUp(ctx *actor.Context, n int) {
	if n <= 0 || er.sealed || len(er.selectors) == 0 {
		return
	}
	sel := er.selectors[er.topUpAt%len(er.selectors)]
	er.topUpAt++
	er.out.send(sel, msgQuotaTopUp{Population: er.cfg.Population, N: n, To: ctx.Self})
}

// abortUnreported answers every configured device that has not reported
// with abort and reports how many it aborted. A device whose reader
// already claimed its report is left to that reader (acked when it folded
// before the seal, "window closed" when it did not).
func (er *EdgeRound) abortUnreported(abort protocol.Abort) int {
	aborted := 0
	for _, d := range er.devices {
		if d.claimUnanswered() {
			aborted++
			sendThenClose(d.held.Conn, abort)
		}
	}
	return aborted
}

// revokeQuota zeroes this round's quota at every Selector, queued behind
// any top-up the round sent before. A Selector whose quota a later round's
// grant already replaced ignores it.
func (er *EdgeRound) revokeQuota(self actor.Ref) {
	for _, sel := range er.selectors {
		er.out.send(sel, msgRevokeQuota{Population: er.cfg.Population, Round: self})
	}
}

// outbox delivers a round's messages to its Selectors in order, off the
// actor goroutine. A Selector streaming devices to the round blocks while
// the round's mailbox is full; had the round in turn blocked sending a
// quota top-up into that Selector's full mailbox, neither would ever drain
// again. Queued sends keep the round's mailbox moving, and keep every
// top-up ordered before the seal's quota revocation.
type outbox struct {
	mu      sync.Mutex
	queue   []outMsg
	running bool
}

// outMsg is one queued send.
type outMsg struct {
	to  actor.Ref
	msg actor.Message
}

// send queues msg for to and starts the drain goroutine if it is idle.
func (o *outbox) send(to actor.Ref, msg actor.Message) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queue = append(o.queue, outMsg{to: to, msg: msg})
	if !o.running {
		o.running = true
		go o.drain()
	}
}

func (o *outbox) drain() {
	for {
		o.mu.Lock()
		if len(o.queue) == 0 {
			o.running = false
			o.mu.Unlock()
			return
		}
		m := o.queue[0]
		o.queue[0] = outMsg{}
		o.queue = o.queue[1:]
		o.mu.Unlock()
		_ = m.to.Send(m.msg)
	}
}

// seal closes the window: unreported devices are aborted, stripes are
// sealed (a reader racing the close gets ErrPartialClosed and answers its
// device "window closed") and merged into one SealedStripe, quota is
// revoked (queued behind the round's top-ups), and the seal ships upstream.
// The actor lingers briefly to abort devices a Selector streamed
// concurrently with the seal, then stops — an edge round, like a Master
// Aggregator, is per-round ephemeral.
func (er *EdgeRound) seal(ctx *actor.Context) {
	if er.sealed {
		return
	}
	er.sealed = true
	windowNanos := time.Since(er.startAt).Nanoseconds()
	mergeStart := time.Now()
	aborted := er.abortUnreported(protocol.Abort{TaskID: er.cfg.TaskID, Round: er.cfg.Round, Reason: "enough devices completed"})
	sealed, err := fedavg.SealStripes(er.ingest.stripes)
	if err != nil {
		// Dimension mismatch across stripes cannot happen (one dim per
		// round); ship an empty seal so the coordinator still hears from
		// this shard rather than waiting out its straggler timeout.
		sealed = fedavg.SealedStripe{}
	}
	er.revokeQuota(ctx.Self)
	er.release()
	if er.ship != nil {
		phases := map[string]int64{
			obs.PhaseReportWindow:   windowNanos,
			obs.PhaseEdgeAccumulate: time.Since(mergeStart).Nanoseconds(),
		}
		if er.checkinNanos > 0 {
			phases[obs.PhaseCheckin] = er.checkinNanos
		}
		if cfgNs := er.configNanos.Load(); cfgNs > 0 {
			phases[obs.PhaseConfigure] = cfgNs
		}
		seal := EdgeSeal{
			Population: er.cfg.Population,
			TaskID:     er.cfg.TaskID,
			Round:      er.cfg.Round,
			Seal:       sealed,
			Lost:       er.lost,
			Aborted:    aborted,
			Clipped:    er.clipped.Load(),
			Phases:     phases,
		}
		er.ship(seal)
	}
	er.lingerThenStop(ctx)
}

// release drops the round's O(dim) buffers — the stripes, the pre-framed
// configuration and the plan and checkpoint bytes it was built from — once
// the round is sealed or abandoned. Devices arriving during the linger are
// answered with an abort that needs only the task ID and round.
func (er *EdgeRound) release() {
	er.ingest = nil
	er.resp = nil
	er.cfg.PlanBytes = nil
	er.cfg.Checkpoint = nil
}

// abandon fails the round without shipping: close every held connection
// with an abort, then linger (like seal) so concurrently streamed devices
// are answered rather than dropped with the mailbox.
func (er *EdgeRound) abandon(ctx *actor.Context, reason string) {
	if er.sealed {
		// Already sealed or abandoned; the linger timer armed then will
		// stop the actor.
		return
	}
	er.sealed = true
	er.ingest.close()
	er.abortUnreported(protocol.Abort{TaskID: er.cfg.TaskID, Round: er.cfg.Round, Reason: reason})
	er.revokeQuota(ctx.Self)
	er.release()
	er.lingerThenStop(ctx)
}

// lingerThenStop schedules the round's actual stop cfg.Linger after it
// sealed. In between, late msgDevices are answered with an abort by
// onDevices' sealed branch — a device connection must never be dropped
// unanswered with the mailbox.
func (er *EdgeRound) lingerThenStop(ctx *actor.Context) {
	self := ctx.Self
	time.AfterFunc(er.cfg.Linger, self.Stop)
}

// StartEdgeRound spawns an edge round on sys under the given actor name and
// kicks it off. The returned ref accepts FinalizeEdgeRound /
// AbandonEdgeRound; the actor stops itself once sealed or abandoned.
func StartEdgeRound(sys *actor.System, name string, cfg EdgeRoundConfig, selectors []actor.Ref, ship func(EdgeSeal)) actor.Ref {
	ref := sys.Spawn(name, NewEdgeRound(cfg, selectors, ship))
	_ = ref.Send(msgEdgeStart{})
	return ref
}

// FinalizeEdgeRound forces an edge round to seal and ship now (coordinator
// decision: the global round is closing).
func FinalizeEdgeRound(ref actor.Ref) { _ = ref.Send(msgEdgeFinalize{}) }

// AbandonEdgeRound fails an edge round without shipping (coordinator
// aborted the round, or the shard lost its coordinator link mid-round).
func AbandonEdgeRound(ref actor.Ref, reason string) { _ = ref.Send(msgAbandonRound{Reason: reason}) }

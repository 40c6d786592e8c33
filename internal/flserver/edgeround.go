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

// edgeDev is one configured device's accounting on an edge round.
type edgeDev struct {
	conn     transport.Conn
	reported bool
	lost     bool
}

// EdgeRound runs one round's device-facing half on a selector shard: it
// requests devices from the shard's local Selectors, streams each arrival
// its configuration (the pre-framed plan+checkpoint response, built once),
// lets per-connection readers decode-and-accumulate reports into this
// round's stripes, and — on target, timeout, or coordinator order — merges
// the stripes into a single fedavg.SealedStripe handed to ship. It reuses
// the single-process round machinery (reportReader, roundIngest,
// sendThenClose) so the edge path is identical in both deployments; only
// who merges the seal differs.
type EdgeRound struct {
	cfg       EdgeRoundConfig
	selectors []actor.Ref
	ship      func(EdgeSeal)

	ingest    *roundIngest
	resp      *transport.Encoded
	devices   map[string]*edgeDev
	completed int
	lost      int
	sealed    bool
	// topUpAt round-robins replacement-quota requests across Selectors.
	topUpAt int

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
		devices:   make(map[string]*edgeDev),
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
		er.onLost(ctx, m.DeviceID)
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

	// Split the admit count across local Selectors, remainder to the
	// first. Quota and forward go out together so devices stream to this
	// round as they check in.
	n := len(er.selectors)
	if n == 0 {
		n = 1
	}
	share := er.cfg.Admit / n
	extra := er.cfg.Admit - share*n
	for i, sel := range er.selectors {
		want := share
		if i == 0 {
			want += extra
		}
		if want <= 0 {
			continue
		}
		_ = sel.Send(msgSetQuota{Population: er.cfg.Population, Accept: want})
		_ = sel.Send(msgForwardDevices{Population: er.cfg.Population, N: want, To: ctx.Self})
	}

	self := ctx.Self
	time.AfterFunc(er.cfg.ReportTimeout, func() { _ = self.Send(msgReportTimeout{}) })
}

// onDevices configures a batch of forwarded devices: the shared pre-framed
// response goes out on a bounded worker pool (a dead socket must never
// stall the actor), and each successful send hands the connection to a
// reportReader goroutine that consumes the report at the edge.
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
		er.devices[d.ID] = &edgeDev{conn: d.Conn}
		jobs = append(jobs, configJob{deviceID: d.ID, conn: d.Conn, resp: er.resp})
	}
	er.topUp(ctx, dups)
	if len(jobs) == 0 {
		return
	}

	self := ctx.Self
	rr := reportReader{
		self:     self,
		dim:      er.cfg.Dim,
		evalOnly: er.cfg.EvalOnly,
		ingest:   er.ingest,
	}
	if er.cfg.ClipNorm > 0 {
		rr.clip = er.cfg.ClipNorm
		rr.clipped = &er.clipped
		rr.obsClipped = er.obsClipped
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
					_ = j.conn.Close()
					_ = self.Send(msgDeviceLost{DeviceID: j.deviceID})
				} else {
					go rr.read(j.deviceID, j.conn, nil)
				}
				sends.Done()
			}
		}()
	}
	batchStart := time.Now()
	go func() {
		sends.Wait()
		er.configNanos.Add(time.Since(batchStart).Nanoseconds())
	}()
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

func (er *EdgeRound) onLost(ctx *actor.Context, deviceID string) {
	d, ok := er.devices[deviceID]
	if !ok || d.reported || d.lost {
		return
	}
	d.lost = true
	er.lost++
	er.topUp(ctx, 1)
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
	_ = sel.Send(msgQuotaTopUp{Population: er.cfg.Population, N: n, To: ctx.Self})
}

// seal closes the window: stripes are sealed (a reader racing the close
// gets ErrPartialClosed and answers its device "window closed"), merged
// into one SealedStripe, unreported devices are aborted, quota is revoked,
// and the seal ships upstream. The actor lingers briefly to abort devices a
// Selector streamed concurrently with the seal, then stops — an edge round,
// like a Master Aggregator, is per-round ephemeral.
func (er *EdgeRound) seal(ctx *actor.Context) {
	if er.sealed {
		return
	}
	er.sealed = true
	windowNanos := time.Since(er.startAt).Nanoseconds()
	mergeStart := time.Now()
	er.ingest.close()
	sealed, err := fedavg.SealStripes(er.ingest.stripes)
	if err != nil {
		// Dimension mismatch across stripes cannot happen (one dim per
		// round); ship an empty seal so the coordinator still hears from
		// this shard rather than waiting out its straggler timeout.
		sealed = fedavg.SealedStripe{}
	}

	abort := protocol.Abort{TaskID: er.cfg.TaskID, Round: er.cfg.Round, Reason: "enough devices completed"}
	aborted := 0
	for _, d := range er.devices {
		if !d.reported && !d.lost {
			aborted++
			sendThenClose(d.conn, abort)
		}
	}
	for _, sel := range er.selectors {
		_ = sel.Send(msgSetQuota{Population: er.cfg.Population, Accept: 0})
	}
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
		er.ship(EdgeSeal{
			Population: er.cfg.Population,
			TaskID:     er.cfg.TaskID,
			Round:      er.cfg.Round,
			Seal:       sealed,
			Lost:       er.lost,
			Aborted:    aborted,
			Clipped:    er.clipped.Load(),
			Phases:     phases,
		})
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
	if er.ingest != nil {
		er.ingest.close()
	}
	abort := protocol.Abort{TaskID: er.cfg.TaskID, Round: er.cfg.Round, Reason: reason}
	for _, d := range er.devices {
		if !d.reported && !d.lost {
			sendThenClose(d.conn, abort)
		}
	}
	for _, sel := range er.selectors {
		_ = sel.Send(msgSetQuota{Population: er.cfg.Population, Accept: 0})
	}
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

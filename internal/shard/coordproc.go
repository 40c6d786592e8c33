package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/flserver"
	"repro/internal/obs"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/remote"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// CoordinatorConfig configures the coordinator process of a sharded
// deployment: the single owner of one population's round state, task set,
// pacing, and lock service.
type CoordinatorConfig struct {
	Population string
	// Plans seeds the task set (sugar, like flserver.Config.Plans).
	Plans              []*plan.Plan
	Store              storage.Store
	Steering           *pacing.Steering
	PopulationEstimate int
	// MaxRounds stops after that many committed rounds (0 = forever).
	MaxRounds int
	// MinShards is how many connected shards a round needs to start
	// (default 1).
	MinShards int
	// SealGrace is the extra wait, past the round's ReportTimeout, for
	// straggler seals before the round settles with what arrived
	// (default 2s).
	SealGrace time.Duration
	Now       func() time.Time
}

// --- messages from shard links to the coordinator actor ---

type msgShardUp struct {
	Sess  *remote.Session
	Hello protocol.ShardHello
}
type msgShardDown struct{ Sess *remote.Session }
type msgSeal struct {
	Sess *remote.Session
	M    protocol.StripeSeal
}
type msgShardAbort struct {
	Sess *remote.Session
	M    protocol.RoundAbort
}
type msgShardStats struct{ Reply chan shardStats }

// shardStats is the shard layer's half of CoordStats plus the per-shard
// breakdown.
type shardStats struct {
	CoordStats
	PerShard map[uint32]ShardContribution
}

// CoordStats reports the sharded coordinator's progress.
type CoordStats struct {
	RoundsCompleted int
	RoundsFailed    int
	CurrentRound    int64
	// Shards is the number of currently connected selector shards.
	Shards int
	// SealsReceived / BytesUpstream count sealed stripes (and their wire
	// bytes) received from shards — the only aggregation traffic that
	// crosses the process boundary.
	SealsReceived int64
	BytesUpstream int64
	// Clipped totals norm-bound edge clips reported in seals across every
	// round so far.
	Clipped int64
}

// ShardContribution is one shard's cumulative contribution as seen by the
// coordinator. It survives reconnects (keyed by shard index, not link).
type ShardContribution struct {
	Name      string
	Connected bool
	Seals     int64
	Bytes     int64
	Reports   int64
	Lost      int64
}

// shardLayer is the sharded deployment's flserver.Topology: selector
// processes (shards) connect over peer links, and each round runs on a
// sealRound that fans the round's configuration out to them and merges
// their seals. Every method runs on the Coordinator's goroutine.
type shardLayer struct {
	cfg     CoordinatorConfig
	tasks   *tasks.TaskSet
	shards  map[*remote.Session]protocol.ShardHello
	contrib map[uint32]*ShardContribution
	// round is the latest round actor; shard traffic is forwarded to it
	// (a settled round has stopped and drops it).
	round   actor.Ref
	drained bool

	sealsRecv int64
	bytesUp   int64
	// clipped totals edge clips across rounds; round actors add to it.
	clipped atomic.Int64
}

// Ready holds rounds until MinShards shards are connected; a new shard
// triggers the next scheduling pass.
func (l *shardLayer) Ready(*actor.Context) bool { return len(l.shards) >= l.cfg.MinShards }

// Receive handles the shard links' traffic.
func (l *shardLayer) Receive(ctx *actor.Context, msg actor.Message) bool {
	switch m := msg.(type) {
	case msgShardUp:
		return l.onShardUp(m)
	case msgShardDown:
		delete(l.shards, m.Sess)
		l.forward(m)
	case msgSeal:
		l.countSeal(m.M)
		l.forward(m)
	case msgShardAbort:
		l.forward(m)
	case msgShardStats:
		st := shardStats{
			CoordStats: CoordStats{
				Shards:        len(l.shards),
				SealsReceived: l.sealsRecv,
				BytesUpstream: l.bytesUp,
				Clipped:       l.clipped.Load(),
			},
			PerShard: make(map[uint32]ShardContribution, len(l.contrib)),
		}
		for id, c := range l.contrib {
			cc := *c
			cc.Connected = l.connected(id)
			st.PerShard[id] = cc
		}
		m.Reply <- st
	}
	return false
}

// forward hands shard traffic to the round actor.
func (l *shardLayer) forward(msg actor.Message) {
	if l.round != nil {
		_ = l.round.Send(msg)
	}
}

func (l *shardLayer) connected(id uint32) bool {
	for _, h := range l.shards {
		if h.Shard == id {
			return true
		}
	}
	return false
}

func (l *shardLayer) onShardUp(m msgShardUp) bool {
	_, known := l.shards[m.Sess]
	l.shards[m.Sess] = m.Hello
	if c, ok := l.contrib[m.Hello.Shard]; ok {
		c.Name = m.Hello.Name
	} else {
		l.contrib[m.Hello.Shard] = &ShardContribution{Name: m.Hello.Name}
	}
	if known {
		// A re-announced hello on an already-registered session (peers
		// re-send hellos periodically in case the first was lost): nothing
		// to resume.
		return false
	}
	if l.drained {
		// The population already finished its rounds; tell the newcomer to
		// steer its devices away rather than park them forever.
		_ = m.Sess.Send(protocol.RoundAbort{Population: l.cfg.Population, Reason: "population drained"})
		return false
	}
	// A round in flight re-sends its config to the newcomer
	// (reconnect-then-resume); otherwise the new shard may make the
	// population ready.
	l.forward(m)
	return true
}

// countSeal folds one seal into the cumulative traffic counters — late and
// duplicate seals included, since their bytes did cross the wire.
func (l *shardLayer) countSeal(seal protocol.StripeSeal) {
	wire := sealWireBytes(seal)
	l.sealsRecv++
	l.bytesUp += wire
	obsSealsReceived.Inc()
	obsBytesUpstream.Add(wire)
	obs.Default.Counter(obs.Label("fl_shard_seals_total", "shard", fmt.Sprint(seal.Shard))).Inc()
	if c, ok := l.contrib[seal.Shard]; ok {
		c.Seals++
		c.Bytes += wire
		c.Reports += seal.Reports + seal.EvalReports
		c.Lost += seal.Lost
	}
}

// shardedUnsupported explains why the sharded deployment cannot run p, or
// returns "".
func shardedUnsupported(p *plan.Plan) string {
	if p.Server.Aggregation == plan.AggregationSecure {
		// Secure aggregation needs the per-device vectors inside one
		// process (documented in DESIGN.md).
		return "secure aggregation is unavailable in sharded mode; run this task on a single-process coordinator or resume after removing the secure-aggregation requirement"
	}
	if p.Server.Robust.PerUpdate() {
		// Retention policies (trimmed mean, median, cosine outlier) need
		// every individual update in one process, but shards only ship
		// merged sums upstream. Norm bounding distributes (each shard clips
		// at its own edge) and is allowed.
		return "per-update robust policies are unavailable in sharded mode (shards ship merged sums, not individual updates); use the norm_bound policy or run this task on a single-process coordinator"
	}
	return ""
}

// StartRound fans the round's configuration out to every connected shard
// and spawns the sealRound that collects their seals. A task the sharded
// deployment cannot run is paused with an operator-visible note instead of
// failing again on every pass.
func (l *shardLayer) StartRound(ctx *actor.Context, t tasks.Task, s flserver.RoundSettler) (actor.Ref, error) {
	p := s.Plan
	if note := shardedUnsupported(p); note != "" {
		// AutoPause fails only for a task the set no longer holds, which
		// has nothing left to pause.
		_ = l.tasks.AutoPause(p.ID, note)
		return nil, errors.New(note)
	}
	planBytes, err := p.Marshal()
	if err != nil {
		return nil, fmt.Errorf("shard: marshal plan: %w", err)
	}
	ckptBytes, err := s.Global.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		return nil, fmt.Errorf("shard: marshal checkpoint: %w", err)
	}

	// Per-shard targets: every shard gets the same ceil share, so the
	// whole RoundConfig — plan and checkpoint included — is marshaled and
	// framed ONCE (transport.Encoded) and fanned out to every shard link.
	n := len(l.shards)
	cfgMsg := protocol.RoundConfig{
		Population:     l.cfg.Population,
		TaskID:         p.ID,
		Round:          s.Global.Round,
		Target:         (p.Server.TargetDevices + n - 1) / n,
		Admit:          (p.Server.SelectTarget() + n - 1) / n,
		Estimate:       l.tasks.PopulationEstimate(),
		EvalOnly:       p.Type == plan.TaskEval,
		ReportDeadline: p.Server.ParticipationCap,
		ReportTimeout:  p.Server.ReportTimeout,
		Plan:           planBytes,
		Checkpoint:     ckptBytes,
	}
	if p.Server.Robust.Kind == plan.RobustNormBound {
		cfgMsg.RobustKind = uint8(plan.RobustNormBound)
		cfgMsg.ClipNorm = p.Server.Robust.ClipNorm
	}
	r := newSealRound(s, transport.Encode(cfgMsg), l.cfg.SealGrace, &l.clipped)
	for sess := range l.shards {
		r.send(sess)
	}
	if len(r.pending) == 0 {
		return nil, fmt.Errorf("shard: no shard took round %d of %s", s.Global.Round, p.ID)
	}
	ref := flserver.SpawnRound(ctx, fmt.Sprintf("round/%s/r%d", p.ID, s.Global.Round), r)
	time.AfterFunc(p.Server.ReportTimeout+l.cfg.SealGrace, func() { _ = ref.Send(msgRoundDeadline{}) })
	l.round = ref
	return ref, nil
}

// Drain tells every shard no further round will start, so they steer their
// parked devices away.
func (l *shardLayer) Drain(*actor.Context) {
	l.drained = true
	for sess := range l.shards {
		_ = sess.Send(protocol.RoundAbort{Population: l.cfg.Population, Reason: "population drained"})
	}
}

// CoordinatorProc is the coordinator process: it accepts shard links,
// serves the lock service and actor registry over them, and runs the
// population's flserver.Coordinator on the shard layer.
type CoordinatorProc struct {
	sys      *actor.System
	locks    *actor.LockService
	registry *remote.Registry
	coord    actor.Ref
	done     chan struct{}
	closed   atomic.Bool
}

// NewCoordinatorProc builds the coordinator process and starts its
// Coordinator (rounds begin once MinShards shards connect).
func NewCoordinatorProc(cfg CoordinatorConfig) (*CoordinatorProc, error) {
	if cfg.Population == "" || cfg.Store == nil {
		return nil, fmt.Errorf("shard: Population and Store are required")
	}
	if cfg.MinShards <= 0 {
		cfg.MinShards = 1
	}
	if cfg.SealGrace <= 0 {
		cfg.SealGrace = 2 * time.Second
	}
	if cfg.Steering == nil {
		cfg.Steering = pacing.New(time.Minute)
	}
	if cfg.PopulationEstimate <= 0 {
		cfg.PopulationEstimate = 1000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ts, err := tasks.New(cfg.Population, cfg.Store, cfg.Now)
	if err != nil {
		return nil, err
	}
	if err := ts.Seed(cfg.Plans); err != nil {
		return nil, err
	}
	ts.SetPopulationEstimate(cfg.PopulationEstimate)

	cp := &CoordinatorProc{
		sys:      actor.NewSystem(),
		locks:    actor.NewLockService(),
		registry: remote.NewRegistry(),
		done:     make(chan struct{}),
	}
	layer := &shardLayer{
		cfg:     cfg,
		tasks:   ts,
		shards:  make(map[*remote.Session]protocol.ShardHello),
		contrib: make(map[uint32]*ShardContribution),
	}
	cp.coord = cp.sys.Spawn("coordinator/"+cfg.Population,
		flserver.NewCoordinator(cfg.Population, cp.locks, cfg.Store, ts, layer, cfg.MaxRounds, cp.done, cfg.Now).
			WithPacing(cfg.Steering, cfg.PopulationEstimate))
	// Location transparency: the coordinator actor is addressable from
	// shard processes through ActorEnvelope frames as well.
	cp.registry.Register("coordinator/"+cfg.Population, cp.coord)
	_ = flserver.StartCoordinator(cp.coord)
	return cp, nil
}

// Locks exposes the population's lock service (served to shards over their
// links; local callers use it directly).
func (cp *CoordinatorProc) Locks() *actor.LockService { return cp.locks }

// Registry exposes the actor registry remote peers can address.
func (cp *CoordinatorProc) Registry() *remote.Registry { return cp.registry }

// Done is closed when MaxRounds rounds have committed.
func (cp *CoordinatorProc) Done() <-chan struct{} { return cp.done }

// TaskStats reports every task's lifecycle record, in submission order —
// the operator surface that carries auto-pause notes (e.g. a secure-
// aggregation task the sharded deployment refused to run). It is nil when
// the Coordinator is dead or unresponsive.
func (cp *CoordinatorProc) TaskStats() []tasks.Stats {
	st, _ := flserver.QueryTaskStats(cp.coord)
	return st
}

// ResumeTask reactivates a paused task (clearing any auto-pause note).
func (cp *CoordinatorProc) ResumeTask(id string) error { return flserver.ResumeTask(cp.coord, id) }

// Serve accepts shard connections from l until l closes. Each connection
// becomes a remote.Session serving heartbeats, the lock service, and actor
// envelopes; shard control messages route to the Coordinator actor.
func (cp *CoordinatorProc) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go cp.serveConn(conn)
	}
}

func (cp *CoordinatorProc) serveConn(conn transport.Conn) {
	var sess *remote.Session
	sess = remote.NewSession(conn, remote.SessionOptions{
		Registry: cp.registry,
		Locks:    cp.locks,
		Handle: func(msg interface{}) {
			switch m := msg.(type) {
			case protocol.ShardHello:
				_ = cp.coord.Send(msgShardUp{Sess: sess, Hello: m})
			case protocol.StripeSeal:
				_ = cp.coord.Send(msgSeal{Sess: sess, M: m})
			case protocol.CheckinRate:
				if m.Elapsed > 0 {
					obs.Default.Gauge(obs.Label("fl_shard_checkin_rate", "shard", fmt.Sprint(m.Shard))).
						Set(float64(m.Count) / m.Elapsed.Seconds())
				}
				_ = flserver.NoteCheckinRate(cp.coord, fmt.Sprintf("shard-%d/%s", m.Shard, m.Source),
					m.Count, m.Elapsed, int(m.Demand))
			case protocol.TelemetrySnapshot:
				// Fold the shard's registry export into the local one under
				// a shard label, so this process's /metrics aggregates the
				// whole deployment. No actor hop: SetExternal is a bounded
				// map store, safe on the session reader goroutine.
				obs.Default.SetExternal(fmt.Sprintf("shard=%q", fmt.Sprint(m.Shard)), obs.Export{
					Counters:  m.Counters,
					Gauges:    m.Gauges,
					Summaries: m.Summaries,
				})
			case protocol.RoundAbort:
				_ = cp.coord.Send(msgShardAbort{Sess: sess, M: m})
			}
		},
	})
	_ = sess.Run()
	_ = cp.coord.Send(msgShardDown{Sess: sess})
}

// queryShards asks the shard layer, through the Coordinator's mailbox, for
// its counters and per-shard breakdown.
func (cp *CoordinatorProc) queryShards() (shardStats, error) {
	reply := make(chan shardStats, 1)
	if err := cp.coord.Send(msgShardStats{Reply: reply}); err != nil {
		return shardStats{}, fmt.Errorf("shard: coordinator stats: %w", err)
	}
	select {
	case st := <-reply:
		return st, nil
	case <-time.After(5 * time.Second):
		return shardStats{}, fmt.Errorf("shard: coordinator did not answer stats")
	}
}

// Stats snapshots coordinator progress. The error is non-nil when the
// coordinator actor is dead or unresponsive.
func (cp *CoordinatorProc) Stats() (CoordStats, error) {
	rounds, err := flserver.QueryCoordinatorStats(cp.coord)
	if err != nil {
		return CoordStats{}, fmt.Errorf("shard: %w", err)
	}
	sh, err := cp.queryShards()
	if err != nil {
		return CoordStats{}, err
	}
	st := sh.CoordStats
	st.RoundsCompleted = rounds.RoundsCompleted
	st.RoundsFailed = rounds.RoundsFailed
	st.CurrentRound = rounds.CurrentRound
	return st, nil
}

// PerShardStats breaks the upstream traffic down by shard index,
// cumulative across reconnects.
func (cp *CoordinatorProc) PerShardStats() (map[uint32]ShardContribution, error) {
	sh, err := cp.queryShards()
	if err != nil {
		return nil, err
	}
	return sh.PerShard, nil
}

// ShardStats reports one shard's contribution. A shard that is not
// currently connected returns an explicit error — a dead peer must never
// read as zeros.
func (cp *CoordinatorProc) ShardStats(id uint32) (ShardContribution, error) {
	all, err := cp.PerShardStats()
	if err != nil {
		return ShardContribution{}, err
	}
	c, ok := all[id]
	if !ok {
		return ShardContribution{}, fmt.Errorf("shard: shard %d has never connected", id)
	}
	if !c.Connected {
		return ShardContribution{}, fmt.Errorf("shard: shard %d (%s) is not connected", id, c.Name)
	}
	return c, nil
}

// Close stops the coordinator process.
func (cp *CoordinatorProc) Close() {
	if cp.closed.Swap(true) {
		return
	}
	cp.sys.Shutdown(cp.coord)
}

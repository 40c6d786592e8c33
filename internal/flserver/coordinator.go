package flserver

import (
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// Coordinator is the top-level actor for one FL population (Sec. 4.2): it
// holds the population's lock, schedules FL tasks, spawns one per-round
// actor per round through its Topology, and restarts rounds whose actor
// fails (Sec. 4.4). The same Coordinator serves every deployment; only the
// per-round actor differs (a MasterAggregator over local Selectors, or the
// sharded deployment's seal collector over selector processes).
//
// Scheduling is event-driven: a pass runs when the Coordinator starts, when
// a round settles, on every task op, on retry timers and whenever the
// Topology reports a change (a shard connecting). Each pass pulls the next
// task from the population's TaskSet (Sec. 7.1: the service "chooses among
// them using a dynamic strategy"):
// due eval tasks first, then weighted round-robin over active train tasks.
// Lifecycle mutations (submit / pause / resume / retire) arrive as mailbox
// messages, so they serialize with scheduling — a retired task's in-flight
// round completes and is recorded, but the task never reschedules. The
// TaskSet itself is owned by the Server/Fleet entry and survives this
// actor's crash and respawn.
type Coordinator struct {
	population string
	lock       *actor.LockService
	store      storage.Store
	tasks      *tasks.TaskSet
	topo       Topology
	// MaxRounds stops the coordinator after that many successful rounds
	// (0 = run forever). Tests and benchmarks set it.
	maxRounds int
	now       func() time.Time

	acquired    bool
	global      map[string]*checkpoint.Checkpoint // per task lineage
	current     actor.Ref
	currentTask string
	completed   int
	failed      int
	// drained records that maxRounds was reached and the Topology told to
	// release this population's parked devices.
	drained bool
	// onDone, if non-nil, is signalled when maxRounds is reached.
	onDone chan struct{}

	// Live population estimation (WithPacing): each msgCheckinRate sample
	// (probed from local Selectors every pass, or relayed by shards)
	// refreshes the TaskSet's population estimate, so MinDevices gates
	// track the reachable population instead of the static config value.
	steering  *pacing.Steering
	rates     *pacing.RateTracker
	gateRetry bool
}

// WithPacing attaches the population's pace steering and the static
// estimate it was configured with, enabling live population estimation
// from the Selector layer's observed check-in rates. Returns c for
// chaining at the spawn site.
func (c *Coordinator) WithPacing(st *pacing.Steering, staticEstimate int) *Coordinator {
	c.steering = st
	c.rates = pacing.NewRateTracker(st, staticEstimate)
	return c
}

// loadRetryDelay is the backoff before retrying a pass whose task failed
// to load its checkpoint or start its round (e.g. an eval task whose base
// has not committed yet, or a transient storage read error).
const loadRetryDelay = time.Second

// Topology is the part of a population's actor tree below its Coordinator
// that differs between deployments. Every method runs on the Coordinator's
// goroutine.
type Topology interface {
	// Ready runs at the start of every scheduling pass and reports whether
	// a round could start now. Not being ready defers the round without
	// counting a failure.
	Ready(ctx *actor.Context) bool
	// StartRound starts the per-round actor for task t through SpawnRound
	// and returns it. The actor ends its round with exactly one call to
	// s.Settle or s.Fail. An error counts as a failed round.
	StartRound(ctx *actor.Context, t tasks.Task, s RoundSettler) (actor.Ref, error)
	// Drain tells the layer below that no further round will start, so it
	// releases the population's parked devices.
	Drain(ctx *actor.Context)
	// Receive handles a message the Coordinator does not know. It returns
	// true when a scheduling pass should follow.
	Receive(ctx *actor.Context, msg actor.Message) bool
}

// SpawnRound spawns a per-round actor as a child of the Coordinator whose
// context is ctx and watches it, so a crashed round is counted and
// restarted (Sec. 4.4).
func SpawnRound(ctx *actor.Context, name string, b actor.Behavior) actor.Ref {
	ref := ctx.Spawn(name, b)
	ctx.Watch(ref)
	return ref
}

// selectorLayer is the single-process Topology: each round runs on a
// MasterAggregator over the process's Selectors.
type selectorLayer struct {
	population string
	selectors  []actor.Ref
}

// SelectorLayer returns the single-process Topology for population over
// the given Selectors.
func SelectorLayer(population string, selectors []actor.Ref) Topology {
	return selectorLayer{population: population, selectors: selectors}
}

// Ready probes every Selector for its check-in arrivals since the last
// pass. Fire-and-forget: the samples return as msgCheckinRate messages, so
// the Coordinator never blocks on a Selector.
func (l selectorLayer) Ready(ctx *actor.Context) bool {
	for _, sel := range l.selectors {
		_ = sel.Send(msgRateProbe{Population: l.population, To: ctx.Self})
	}
	return true
}

func (l selectorLayer) StartRound(ctx *actor.Context, t tasks.Task, s RoundSettler) (actor.Ref, error) {
	ma := SpawnRound(ctx, fmt.Sprintf("ma/%s/r%d", s.Plan.ID, s.Global.Round),
		NewMasterAggregator(s.Plan, s.Global, s.Store, s.Coord, l.selectors, t.Policy.MinRuntimeVersion, s.Now))
	_ = ma.Send(msgStartRound{})
	return ma, nil
}

// Drain releases the parked devices (and their half-open connections) the
// Selectors are holding for the population, instead of stranding them
// until process teardown.
func (l selectorLayer) Drain(*actor.Context) {
	for _, sel := range l.selectors {
		_ = sel.Send(msgReleaseParked{Population: l.population})
	}
}

func (selectorLayer) Receive(*actor.Context, actor.Message) bool { return false }

// NewCoordinator returns the behavior for a population coordinator driving
// rounds for the tasks registered in ts on topo.
func NewCoordinator(population string, lock *actor.LockService, store storage.Store, ts *tasks.TaskSet, topo Topology, maxRounds int, onDone chan struct{}, now func() time.Time) *Coordinator {
	if now == nil {
		now = time.Now
	}
	return &Coordinator{
		population: population,
		lock:       lock,
		store:      store,
		tasks:      ts,
		topo:       topo,
		maxRounds:  maxRounds,
		now:        now,
		global:     make(map[string]*checkpoint.Checkpoint),
		onDone:     onDone,
	}
}

// Receive implements actor.Behavior.
func (c *Coordinator) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case msgSchedule:
		c.schedule(ctx)
	case msgRoundComplete:
		c.onRoundComplete(ctx, m)
	case msgRoundFailed:
		c.failed++
		c.tasks.NoteFailed(m.TaskID)
		c.current = nil
		c.currentTask = ""
		// Restart: the next pass asks the TaskSet again ("the current
		// round... will fail, but will then be restarted by the
		// Coordinator"). A failed eval round re-arms its cadence, so it is
		// retried rather than waiting out another EvalEvery train rounds.
		_ = ctx.Self.Send(msgSchedule{})
	case actor.Terminated:
		if m.Ref == c.current && m.Failure {
			c.failed++
			c.tasks.NoteFailed(c.currentTask)
			c.current = nil
			c.currentTask = ""
			_ = ctx.Self.Send(msgSchedule{})
		}
	case msgCheckinRate:
		c.onCheckinRate(m)
	case msgTaskOp:
		c.onTaskOp(ctx, m)
	case msgTaskStats:
		m.Reply <- c.tasks.Stats()
	case msgStopCoordinator:
		// Clean shutdown (population deregistered): abandon the in-flight
		// round, hand the population lock back so a future registration can
		// acquire it immediately, and stop without a failure so watchers do
		// not respawn us.
		if c.current != nil {
			_ = c.current.Send(msgAbandonRound{Reason: "population deregistered"})
			c.current = nil
			c.currentTask = ""
		}
		if c.acquired {
			c.lock.Release(c.population, ctx.Self)
			c.acquired = false
		}
		ctx.Stop()
	case msgCoordinatorStats:
		round := int64(0)
		if id, ok := c.tasks.PrimaryID(); ok {
			if g, ok := c.global[id]; ok {
				round = g.Round
			} else if st, ok := c.tasks.StatsFor(id); ok {
				round = st.LastRound
			}
		}
		m.Reply <- CoordinatorStats{RoundsCompleted: c.completed, RoundsFailed: c.failed, CurrentRound: round}
	case msgCrash:
		panic("coordinator crash injected")
	default:
		if c.topo.Receive(ctx, msg) {
			c.schedule(ctx)
		}
	}
}

// onTaskOp applies one lifecycle mutation. Running on the actor goroutine
// means the mutation can never interleave with a scheduling pass; a
// successful mutation is followed by a pass so a task submitted or resumed
// on an idle population schedules immediately instead of waiting for the
// next round to complete.
func (c *Coordinator) onTaskOp(ctx *actor.Context, m msgTaskOp) {
	var err error
	switch m.Op {
	case taskOpSubmit:
		err = c.tasks.Submit(m.Plan, m.Policy)
	case taskOpPause:
		err = c.tasks.Pause(m.ID)
	case taskOpResume:
		err = c.tasks.Resume(m.ID)
	case taskOpRetire:
		err = c.tasks.Retire(m.ID)
	default:
		err = fmt.Errorf("flserver: unknown task op %d", m.Op)
	}
	m.Reply <- err
	if err == nil {
		_ = ctx.Self.Send(msgSchedule{})
	}
}

func (c *Coordinator) schedule(ctx *actor.Context) {
	// Registration in the shared locking service: only the single owner of
	// the population proceeds.
	if !c.acquired {
		if !c.lock.Acquire(c.population, ctx.Self) {
			ctx.Stop() // someone else owns this population
			return
		}
		c.acquired = true
	}
	// Any pass satisfies a pending gate-retry; a new one is armed below if
	// the gate still holds.
	c.gateRetry = false
	ready := c.topo.Ready(ctx)
	if c.current != nil {
		return // round in flight
	}
	if c.maxRounds > 0 && c.completed >= c.maxRounds {
		if !c.drained {
			c.drained = true
			c.topo.Drain(ctx)
		}
		if c.onDone != nil {
			select {
			case <-c.onDone:
			default:
				close(c.onDone)
			}
		}
		return
	}
	if !ready {
		return
	}

	t, ok := c.tasks.Next()
	if !ok {
		// Nothing schedulable: all tasks paused/retired/gated, or none yet.
		// A task gated only by MinDevices may become schedulable as fresh
		// check-in rate samples move the live estimate, and an idle
		// Coordinator may have nothing else to wake it — re-check on a backoff.
		if c.steering != nil && !c.gateRetry && c.tasks.GatedByEstimate() {
			c.gateRetry = true
			self := ctx.Self
			time.AfterFunc(loadRetryDelay, func() { _ = self.Send(msgSchedule{}) })
		}
		return
	}
	p := t.Plan

	global, err := c.loadGlobal(t)
	var round actor.Ref
	if err == nil {
		round, err = c.topo.StartRound(ctx, t, RoundSettler{Plan: p, Global: global, Store: c.store, Coord: ctx.Self, Now: c.now})
	}
	if err != nil {
		c.failed++
		c.tasks.NoteFailed(p.ID)
		// A task that cannot start must not stall the population: nothing
		// else is guaranteed to wake an idle Coordinator, so retry after a
		// short backoff. The TaskSet rotates its weighted round-robin on
		// every pick, so a permanently broken task costs one failed pick
		// per rotation — it cannot starve the healthy tasks.
		self := ctx.Self
		time.AfterFunc(loadRetryDelay, func() { _ = self.Send(msgSchedule{}) })
		return
	}
	c.current = round
	c.currentTask = p.ID
}

// loadGlobal fetches the checkpoint the task's next round serves. Train
// tasks (and standalone eval tasks) own a lineage keyed by their own ID:
// the latest committed checkpoint, or a fresh round-0 initialization from
// the model spec. An eval task with a base task (Policy.EvalOf) serves the
// BASE task's latest committed checkpoint read-only — it is cached under
// the base ID, never the eval ID, so eval rounds cannot perturb or fork
// the training lineage.
func (c *Coordinator) loadGlobal(t tasks.Task) (*checkpoint.Checkpoint, error) {
	p := t.Plan
	if p.Type == plan.TaskEval && t.Policy.EvalOf != "" {
		if g, ok := c.global[t.Policy.EvalOf]; ok {
			return g, nil
		}
		g, err := c.store.LatestCheckpoint(t.Policy.EvalOf)
		if err != nil {
			return nil, fmt.Errorf("eval task %q: base task %q has no committed checkpoint: %w", p.ID, t.Policy.EvalOf, err)
		}
		c.global[t.Policy.EvalOf] = g
		return g, nil
	}
	if g, ok := c.global[p.ID]; ok {
		return g, nil
	}
	if g, err := c.store.LatestCheckpoint(p.ID); err == nil {
		c.global[p.ID] = g
		return g, nil
	}
	m, err := p.Device.Model.Build()
	if err != nil {
		return nil, err
	}
	params := make(tensor.Vector, m.NumParams())
	m.ReadParams(params)
	g := &checkpoint.Checkpoint{TaskName: p.ID, Round: 0, Params: params}
	c.global[p.ID] = g
	return g, nil
}

// onCheckinRate folds one arrival sample into the live population
// estimate (pacing.RateTracker: population ≈ λ × MeanWait, EWMA-smoothed,
// latest sample per source). The result feeds
// TaskSet.SetPopulationEstimate, which the MinDevices deployment gates
// check.
func (c *Coordinator) onCheckinRate(m msgCheckinRate) {
	if c.rates == nil {
		return
	}
	c.tasks.SetPopulationEstimate(c.rates.Fold(pacing.RateSample{
		Source:  m.Source,
		Count:   int64(m.Count),
		Elapsed: m.Elapsed,
		Demand:  m.Demand,
	}, c.now()))
}

func (c *Coordinator) onRoundComplete(ctx *actor.Context, m msgRoundComplete) {
	// Only train rounds advance a checkpoint lineage. A committed eval
	// round's m.Committed is the base task's unchanged checkpoint; caching
	// it under the eval task's ID would fork the lineage and freeze later
	// eval rounds on a stale model.
	if t, ok := c.tasks.Get(m.TaskID); !ok || t.Plan.Type != plan.TaskEval {
		c.global[m.TaskID] = m.Committed
	}
	c.tasks.NoteCommitted(m.TaskID, m.Round, m.Completed, c.now())
	c.completed++
	c.current = nil
	c.currentTask = ""
	_ = ctx.Self.Send(msgSchedule{})
}

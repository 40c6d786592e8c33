package flserver

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/pacing"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestEdgeRoundLingerWindow is the regression test for the configurable
// post-seal linger: a device arriving INSIDE the window gets an explicit
// protocol.Abort (its connection answered, then closed), while a device
// checking in AFTER the window gets a clean steering rejection from the
// Selector (the quota revocation has drained; the round actor is gone).
func TestEdgeRoundLingerWindow(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()

	sel := sys.Spawn("sel", NewSelector(nil, pacing.New(time.Minute), 0, 1, nil,
		SelectorPopulation{Name: "pop"}))

	seals := make(chan EdgeSeal, 1)
	const linger = 400 * time.Millisecond
	ref := StartEdgeRound(sys, "edge-linger-test", EdgeRoundConfig{
		Population:    "pop",
		TaskID:        "task",
		Round:         7,
		Dim:           4,
		Target:        1,
		ReportTimeout: 50 * time.Millisecond,
		Linger:        linger,
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })

	// No device reports; the window times out and the round seals empty.
	select {
	case <-seals:
	case <-time.After(5 * time.Second):
		t.Fatal("round never sealed")
	}
	sealedAt := time.Now()

	// INSIDE the linger window: a late forward reaches the still-lingering
	// round actor and must be answered with an explicit abort.
	srvEnd, devEnd := transport.Pipe()
	if err := ref.Send(msgDevices{Devices: []heldDevice{{ID: "late-inside", Conn: srvEnd}}}); err != nil {
		t.Fatalf("send inside linger window: %v", err)
	}
	got := make(chan interface{}, 1)
	go func() {
		msg, err := devEnd.Recv()
		if err != nil {
			got <- err
			return
		}
		got <- msg
	}()
	select {
	case msg := <-got:
		ab, ok := msg.(protocol.Abort)
		if !ok {
			t.Fatalf("late device inside window got %T (%v), want protocol.Abort", msg, msg)
		}
		if ab.Reason != "round sealed" || ab.TaskID != "task" || ab.Round != 7 {
			t.Fatalf("abort = %+v", ab)
		}
	case <-time.After(linger):
		t.Fatal("late device inside window never answered")
	}
	// The connection is closed after the abort, not left half-open.
	if _, err := devEnd.Recv(); err == nil {
		t.Fatal("late device connection left open after abort")
	}

	// OUTSIDE the window: the round actor has stopped itself.
	deadline := sealedAt.Add(linger + 2*time.Second)
	for !ref.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("round actor still alive well past its linger window")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A fresh check-in now gets a clean steering rejection from the
	// Selector — quota was revoked at seal, so there is no round to join
	// and nothing to abort.
	srvEnd2, devEnd2 := transport.Pipe()
	if err := sel.Send(msgCheckin{
		Req:  protocol.CheckinRequest{Population: "pop", DeviceID: "late-outside"},
		Conn: srvEnd2,
	}); err != nil {
		t.Fatalf("post-linger checkin: %v", err)
	}
	msg, err := devEnd2.Recv()
	if err != nil {
		t.Fatalf("post-linger device recv: %v", err)
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok {
		t.Fatalf("post-linger device got %T, want clean CheckinResponse rejection", msg)
	}
	if resp.Accepted {
		t.Fatal("post-linger checkin accepted with no round open")
	}
	if resp.RetryAfter <= 0 {
		t.Fatalf("clean rejection carries no steering hint: %+v", resp)
	}
}

// TestEdgeRoundLingerDefault pins the default window so the knob's zero
// value stays backward compatible.
func TestEdgeRoundLingerDefault(t *testing.T) {
	er := NewEdgeRound(EdgeRoundConfig{Population: "p", TaskID: "t", Dim: 1}, nil, func(EdgeSeal) {})
	if er.cfg.Linger != defaultEdgeRoundLinger {
		t.Fatalf("default linger = %v, want %v", er.cfg.Linger, defaultEdgeRoundLinger)
	}
	er = NewEdgeRound(EdgeRoundConfig{Population: "p", TaskID: "t", Dim: 1, Linger: time.Second}, nil, func(EdgeSeal) {})
	if er.cfg.Linger != time.Second {
		t.Fatalf("explicit linger = %v, want 1s", er.cfg.Linger)
	}
}

// trackedBytes allocates n bytes whose collection flips the returned flag,
// so a test can tell whether anything still references them.
func trackedBytes(n int) ([]byte, *atomic.Bool) {
	b := make([]byte, n)
	freed := new(atomic.Bool)
	runtime.SetFinalizer(&b[0], func(*byte) { freed.Store(true) })
	return b, freed
}

// startTrackedEdgeRound spawns a long-lingering edge round served from
// tracked plan and checkpoint bytes. It returns the behavior (for the
// white-box checks) and the two collection flags; the caller keeps no
// reference to the bytes themselves.
func startTrackedEdgeRound(sys *actor.System, name string, ship func(EdgeSeal)) (*EdgeRound, actor.Ref, *atomic.Bool, *atomic.Bool) {
	planBytes, planFreed := trackedBytes(1 << 20)
	ckpt, ckptFreed := trackedBytes(1 << 20)
	er := NewEdgeRound(EdgeRoundConfig{
		Population:    "pop",
		TaskID:        "task",
		Round:         3,
		PlanBytes:     planBytes,
		Checkpoint:    ckpt,
		Dim:           1 << 16,
		Target:        1,
		ReportTimeout: 20 * time.Millisecond,
		Linger:        time.Minute,
	}, nil, ship)
	ref := sys.Spawn(name, er)
	_ = ref.Send(msgEdgeStart{})
	return er, ref, planFreed, ckptFreed
}

// waitCollected runs the collector until every flag is set or the deadline
// passes.
func waitCollected(flags ...*atomic.Bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		done := true
		for _, f := range flags {
			done = done && f.Load()
		}
		if done {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestEdgeRoundReleasesBuffersWhenSealed pins the linger's memory: a sealed
// or abandoned edge round lingers only to abort late devices, which needs
// the task ID and round, so it must stop pinning its stripes, its
// pre-framed configuration and the plan and checkpoint bytes. At the
// 1M-parameter shard-tree shape those were about 24 MB per lingering round.
func TestEdgeRoundReleasesBuffersWhenSealed(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()

	seals := make(chan EdgeSeal, 1)
	er, ref, planFreed, ckptFreed := startTrackedEdgeRound(sys, "edge-release-seal", func(s EdgeSeal) { seals <- s })
	select {
	case <-seals:
	case <-time.After(5 * time.Second):
		t.Fatal("round never sealed")
	}
	// ship runs after the release on the actor goroutine; the channel
	// receive orders these reads after it.
	if er.ingest != nil || er.resp != nil {
		t.Fatal("sealed edge round still holds its stripes or its pre-framed configuration")
	}
	if !waitCollected(planFreed, ckptFreed) {
		t.Fatalf("sealed edge round still pins its plan (freed=%v) or checkpoint (freed=%v) bytes",
			planFreed.Load(), ckptFreed.Load())
	}
	if ref.Stopped() {
		t.Fatal("round stopped before its linger ended; the check above proved nothing")
	}

	_, ref, planFreed, ckptFreed = startTrackedEdgeRound(sys, "edge-release-abandon", nil)
	AbandonEdgeRound(ref, "test abandon")
	if !waitCollected(planFreed, ckptFreed) {
		t.Fatalf("abandoned edge round still pins its plan (freed=%v) or checkpoint (freed=%v) bytes",
			planFreed.Load(), ckptFreed.Load())
	}
	if ref.Stopped() {
		t.Fatal("abandoned round stopped before its linger ended")
	}
}

package shard

import (
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/transport"
)

// coordinatorWithShard runs a CoordinatorProc for p with one connected
// shard link (a bare connection that announces itself and never answers),
// so the Coordinator is ready to start rounds.
func coordinatorWithShard(t *testing.T, p *plan.Plan) *CoordinatorProc {
	t.Helper()
	cp, err := NewCoordinatorProc(CoordinatorConfig{
		Population: p.Population,
		Plans:      []*plan.Plan{p},
		Store:      storage.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	mem := transport.NewMemNetwork()
	l, err := mem.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go cp.Serve(l)
	conn, err := mem.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(protocol.ShardHello{Shard: 0, Name: "shard-0"}); err != nil {
		t.Fatal(err)
	}
	return cp
}

// waitAutoPaused polls the Coordinator's task stats until task id is
// paused with wantFailed failed rounds.
func waitAutoPaused(t *testing.T, cp *CoordinatorProc, id string, wantFailed int) tasks.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last tasks.Stats
	for time.Now().Before(deadline) {
		for _, st := range cp.TaskStats() {
			if st.ID == id {
				last = st
			}
		}
		if last.State == tasks.Paused && last.RoundsFailed == wantFailed {
			return last
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("task %s not auto-paused with %d failed rounds: %+v", id, wantFailed, last)
	return tasks.Stats{}
}

// TestSecureTaskAutoPausedInShardedMode pins the scheduler's handling of a
// task the sharded deployment cannot run: secure aggregation needs the
// per-device vectors inside one process, so instead of burning a failed
// round on every scheduling pass with no explanation, the coordinator
// pauses the task once and records an operator-visible reason in its
// stats. Resuming without removing the requirement re-pauses on the next
// pass, again with the note.
func TestSecureTaskAutoPausedInShardedMode(t *testing.T) {
	p, err := plan.Generate(plan.Config{
		TaskID: "pop/secure", Population: "pop",
		Model:     nn.Spec{Kind: nn.KindLogistic, Features: 4, Classes: 3, Seed: 1},
		StoreName: "clicks", BatchSize: 5, Epochs: 1, LearningRate: 0.1,
		TargetDevices: 4, SecureAggregation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := coordinatorWithShard(t, p)

	st := waitAutoPaused(t, cp, "pop/secure", 1)
	if !strings.Contains(st.Note, "secure aggregation") || !strings.Contains(st.Note, "sharded") {
		t.Fatalf("auto-pause note not operator-readable: %q", st.Note)
	}
	cs, err := cp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.RoundsFailed != 1 || cs.RoundsCompleted != 0 {
		t.Fatalf("coordinator stats after one auto-pause: %+v", cs)
	}

	// An operator resume without removing the requirement re-pauses with
	// the same note — one failed round per resume, not one per pass.
	if err := cp.ResumeTask("pop/secure"); err != nil {
		t.Fatal(err)
	}
	st = waitAutoPaused(t, cp, "pop/secure", 2)
	if !strings.Contains(st.Note, "secure aggregation") {
		t.Fatalf("re-pause after resume lost its note: %+v", st)
	}
}

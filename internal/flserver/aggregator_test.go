package flserver

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/secagg"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The tests in this file and aggregator_churn_test.go drive the round's
// window-close paths at function level: report readers consume real
// ReportRequests over in-memory connections, then the plaintext seal
// (roundIngest.seal) or the secure groups (closeSecure) merge them.

// collectMaster spawns an actor standing in for a round actor or
// Coordinator, recording everything it is sent.
func collectMaster(s *actor.System) (actor.Ref, func() []actor.Message, chan struct{}) {
	var mu sync.Mutex
	var got []actor.Message
	sig := make(chan struct{}, 4096)
	ref := s.Spawn("fake-master", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		sig <- struct{}{}
	}))
	return ref, func() []actor.Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]actor.Message(nil), got...)
	}, sig
}

func waitSignals(t *testing.T, sig chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-sig:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %d/%d messages", i+1, n)
		}
	}
}

// report runs rr's reader for one device over an in-memory connection: the
// device sends a ReportRequest carrying u (nil for a metrics-only report)
// and the answer it gets back is returned.
func report(t *testing.T, rr reportReader, id string, u *checkpoint.Checkpoint, metrics map[string]float64) protocol.ReportResponse {
	t.Helper()
	srv, dev := transport.Pipe()
	var claim atomic.Bool
	read := make(chan struct{})
	go func() {
		rr.read(configJob{deviceID: id, conn: srv, claim: &claim})
		close(read)
	}()
	req := protocol.ReportRequest{DeviceID: id, Metrics: metrics}
	if u != nil {
		b, err := u.Marshal(checkpoint.EncodingFloat64)
		if err != nil {
			t.Fatal(err)
		}
		req.Update = b
	}
	if err := dev.Send(req); err != nil {
		t.Fatal(err)
	}
	msg, err := dev.Recv()
	if err != nil {
		t.Fatalf("%s: no answer: %v", id, err)
	}
	<-read
	resp, ok := msg.(protocol.ReportResponse)
	if !ok {
		t.Fatalf("%s: answered with %T", id, msg)
	}
	return resp
}

// update is a Params/Weight checkpoint for report.
func update(weight float64, params ...float64) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{Params: tensor.Vector(params), Weight: weight}
}

// secureBuffer retains each update as delta‖weight through a secure
// round's reader, in order, and returns the buffer for closeSecure.
func secureBuffer(t *testing.T, self actor.Ref, dim int, ids []string, updates []*checkpoint.Checkpoint, metrics map[string]float64) *robust.Buffer {
	t.Helper()
	buf := robust.NewBuffer(dim + 1)
	rr := reportReader{self: self, dim: dim, buf: buf, withWeight: true}
	for i, id := range ids {
		if resp := report(t, rr, id, updates[i], metrics); !resp.Accepted {
			t.Fatalf("%s rejected: %s", id, resp.Reason)
		}
	}
	return buf
}

func TestAggregatorSimpleSum(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	ri := newRoundIngest(2)
	rr := reportReader{self: self, dim: 2, ingest: ri}
	report(t, rr, "a", update(2, 2, 4), map[string]float64{"loss": 1})
	report(t, rr, "b", update(1, 1, 1), map[string]float64{"loss": 3})

	o, err := ri.seal(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Reports != 2 || o.Acc.Count() != 2 || o.Acc.Weight() != 3 {
		t.Fatalf("outcome: reports %d, count %d, weight %v", o.Reports, o.Acc.Count(), o.Acc.Weight())
	}
	next := tensor.Vector{0, 0}
	if err := o.Acc.ApplyAverage(next); err != nil {
		t.Fatal(err)
	}
	if math.Abs(next[0]-1) > 1e-12 || math.Abs(next[1]-5.0/3) > 1e-12 {
		t.Fatalf("average = %v, want sum (3, 5) / 3", next)
	}
	if len(o.Metrics["loss"]) != 2 {
		t.Fatalf("metrics: %+v", o.Metrics)
	}
}

func TestAggregatorRejectsBadUpdates(t *testing.T) {
	sys := actor.NewSystem()
	self, got, sig := collectMaster(sys)
	defer sys.Shutdown(self)
	ri := newRoundIngest(2)
	rr := reportReader{self: self, dim: 2, ingest: ri}

	if resp := report(t, rr, "a", update(1, 1), nil); resp.Accepted || !strings.Contains(resp.Reason, "dim") {
		t.Fatalf("wrong-dimension update answered %+v", resp)
	}
	if resp := report(t, rr, "b", update(0, 1, 2), nil); resp.Accepted {
		t.Fatalf("zero-weight update accepted: %+v", resp)
	}
	waitSignals(t, sig, 2)
	for _, m := range got() {
		if r, ok := m.(msgReportDone); !ok || r.OK {
			t.Fatalf("bad update accounted as %+v", m)
		}
	}
	if o, _ := ri.seal(2); o.Reports != 0 {
		t.Fatalf("bad updates folded: %d reports", o.Reports)
	}
}

func TestAggregatorSecureMatchesSimple(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	ids := []string{"a", "b", "c"}
	updates := []*checkpoint.Checkpoint{update(3, 1, -2, 0.5), update(1, 0.25, 1, 1), update(2, -1, -1, -1)}

	ri := newRoundIngest(3)
	rr := reportReader{self: self, dim: 3, ingest: ri}
	for i, id := range ids {
		report(t, rr, id, updates[i], nil)
	}
	plain, err := ri.seal(3)
	if err != nil {
		t.Fatal(err)
	}
	secure := closeSecure(secureParams{dim: 3}, secureBuffer(t, self, 3, ids, updates, nil), [][]string{ids})
	if len(secure.GroupErrors) != 0 {
		t.Fatalf("secure group failed: %v", secure.GroupErrors)
	}
	if plain.Reports != secure.Reports || plain.Acc.Count() != secure.Acc.Count() {
		t.Fatalf("counts differ: %d vs %d", plain.Reports, secure.Reports)
	}
	if math.Abs(plain.Acc.Weight()-secure.Acc.Weight()) > 1e-3 {
		t.Fatalf("weights differ: %v vs %v", plain.Acc.Weight(), secure.Acc.Weight())
	}
	pa, _ := plain.Acc.Average()
	sa, _ := secure.Acc.Average()
	for i := range pa {
		if math.Abs(pa[i]-sa[i]) > 1e-3 {
			t.Fatalf("secure average %v != plain %v", sa, pa)
		}
	}
}

func TestSecureSingletonRefusesDirectSum(t *testing.T) {
	// Regression: a secure group of 1 used to fall back to a direct sum,
	// handing the server the device's raw update. It must refuse instead,
	// while still reporting the metrics that never went through the secure
	// path.
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	buf := secureBuffer(t, self, 2, []string{"solo"}, []*checkpoint.Checkpoint{update(1, 1, 2)},
		map[string]float64{"train_loss": 0.5})

	o := closeSecure(secureParams{dim: 2}, buf, [][]string{{"solo"}})
	if len(o.GroupErrors) != 1 || !strings.Contains(o.GroupErrors[0], "below minimum 2") {
		t.Fatalf("singleton secure group must refuse to aggregate: %v", o.GroupErrors)
	}
	if o.Reports != 0 || o.Acc.Count() != 0 || o.Acc.Weight() != 0 {
		t.Fatalf("raw update leaked into the round: reports %d, weight %v", o.Reports, o.Acc.Weight())
	}
	if len(o.Metrics["train_loss"]) != 1 {
		t.Fatalf("metrics must still propagate: %+v", o.Metrics)
	}
}

func TestSecAggFailureStillReportsMetrics(t *testing.T) {
	// Regression: a secagg failure used to produce an empty group result,
	// silently dropping the group's metrics and hiding the error.
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	ids := []string{"a", "b"}
	buf := secureBuffer(t, self, 2, ids, []*checkpoint.Checkpoint{update(1, 1, 2), update(1, 1, 2)},
		map[string]float64{"train_loss": 0.5})
	// A metrics-only report rides along outside the secure path.
	if err := buf.AddEval(map[string]float64{"train_loss": 0.7}); err != nil {
		t.Fatal(err)
	}
	// Participant 2 vanishes after sharing keys: 1 of 2 masked inputs is
	// below the threshold 2, so the protocol aborts.
	p := secureParams{dim: 2, churn: func(g, n, tt int) secagg.Schedule { return secagg.Schedule{DropAfterShare: []int{2}} }}
	o := closeSecure(p, buf, [][]string{ids})
	if len(o.GroupErrors) != 1 || !strings.Contains(o.GroupErrors[0], "secagg") {
		t.Fatalf("error not surfaced: %v", o.GroupErrors)
	}
	if o.Acc.Count() != 0 || o.Reports != 1 {
		t.Fatalf("failed group must not report a sum: count %d, reports %d", o.Acc.Count(), o.Reports)
	}
	if len(o.Metrics["train_loss"]) != 3 {
		t.Fatalf("metrics swallowed on secagg failure: %+v", o.Metrics)
	}
	if len(o.Phases) == 0 {
		t.Fatal("a failed run must still carry its phase times")
	}
}

// settleThroughMaster hands o to a Master Aggregator whose window just
// closed and returns what its Coordinator receives.
func settleThroughMaster(t *testing.T, p *plan.Plan, dim int, store storage.Store, o RoundOutcome) actor.Message {
	t.Helper()
	sys := actor.NewSystem()
	coord, got, sig := collectMaster(sys)
	global := &checkpoint.Checkpoint{TaskName: p.ID, Params: make(tensor.Vector, dim)}
	ma := NewMasterAggregator(p, global, store, coord, nil, 0, nil)
	ma.state = "collecting"
	ref := sys.Spawn("ma", ma)
	defer sys.Shutdown(coord, ref)
	_ = ref.Send(msgWindowClosed{Outcome: o})
	waitSignals(t, sig, 1)
	msgs := got()
	return msgs[len(msgs)-1]
}

// modelDim is the parameter count of p's model.
func modelDim(t *testing.T, p *plan.Plan) int {
	t.Helper()
	m, err := p.Device.Model.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m.NumParams()
}

// namedUpdates returns count device ids prefix0.. and zero updates of dim.
func namedUpdates(prefix string, count, dim int) ([]string, []*checkpoint.Checkpoint) {
	ids := assignedNames(prefix, count)
	updates := make([]*checkpoint.Checkpoint, count)
	for i := range updates {
		updates[i] = &checkpoint.Checkpoint{Params: make(tensor.Vector, dim), Weight: 1}
	}
	return ids, updates
}

func TestMasterAggregatorSurfacesGroupErrors(t *testing.T) {
	// A failed group's metrics still reach storage, its error reaches the
	// Coordinator, and the round completes on the healthy group.
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	p := testPlan(t, 4, true)
	dim := modelDim(t, p)
	buf := robust.NewBuffer(dim + 1)
	rr := reportReader{self: self, dim: dim, buf: buf, withWeight: true}
	healthy, hu := namedUpdates("h", 4, dim)
	failing, fu := namedUpdates("f", 2, dim)
	for i, id := range healthy {
		report(t, rr, id, hu[i], map[string]float64{"train_loss": float64(i)})
	}
	for i, id := range failing {
		report(t, rr, id, fu[i], map[string]float64{"train_loss": 9})
	}
	// The failing group had 5 devices configured; 2 delivered is below its
	// threshold 3.
	o := closeSecure(secureParams{dim: dim}, buf, [][]string{healthy, append(failing, "l1", "l2", "l3")})

	store := storage.NewMem()
	done, ok := settleThroughMaster(t, p, dim, store, o).(msgRoundComplete)
	if !ok {
		t.Fatal("round did not complete on the healthy group")
	}
	if len(done.GroupErrors) != 1 || !strings.Contains(done.GroupErrors[0], "threshold") {
		t.Fatalf("group errors not surfaced: %+v", done.GroupErrors)
	}
	if done.Completed != 4 {
		t.Fatalf("completed = %d, want 4 (the failed group's updates are lost)", done.Completed)
	}
	ms, err := store.Metrics(p.ID)
	if err != nil || len(ms) == 0 {
		t.Fatalf("metrics never materialized: %v", err)
	}
	if n := ms[0].Stats["train_loss"].Count; n != 6 {
		t.Fatalf("train_loss count = %d, want 6 (failed group's metrics must not be dropped)", n)
	}
}

func TestTwoSecureGroupsFinalizeConcurrently(t *testing.T) {
	// Two groups close in one closeSecure call; their secagg runs execute
	// on their own goroutines, concurrently. Run under -race (CI does) to
	// check the parallel finalization pipeline.
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	a := assignedNames("a", 3)
	b := assignedNames("x", 3)
	var updates []*checkpoint.Checkpoint
	for range a {
		updates = append(updates, update(1, 1, 2))
	}
	for range b {
		updates = append(updates, update(2, 3, 4))
	}
	// Interleave the groups' arrivals, as concurrent readers would.
	ids := []string{a[0], b[0], a[1], b[1], a[2], b[2]}
	ordered := []*checkpoint.Checkpoint{updates[0], updates[3], updates[1], updates[4], updates[2], updates[5]}
	buf := secureBuffer(t, self, 2, ids, ordered, nil)

	o := closeSecure(secureParams{dim: 2}, buf, [][]string{a, b})
	if len(o.GroupErrors) != 0 || o.Reports != 6 || o.Acc.Count() != 6 || o.Acc.Weight() != 9 {
		t.Fatalf("outcome: errors %v, reports %d, weight %v", o.GroupErrors, o.Reports, o.Acc.Weight())
	}
	next := tensor.Vector{0, 0}
	_ = o.Acc.ApplyAverage(next)
	if math.Abs(next[0]-12.0/9) > 1e-5 || math.Abs(next[1]-18.0/9) > 1e-5 {
		t.Fatalf("average %v, want sum (12, 18) / 9", next)
	}
	for _, phase := range []string{"secagg_advertise", "secagg_share", "secagg_commit", "secagg_unmask"} {
		if _, ok := o.Phases[phase]; !ok {
			t.Fatalf("phase %s missing from %v", phase, o.Phases)
		}
	}
}

func TestSecureRemainderFoldedIntoLastGroup(t *testing.T) {
	// Regression: 5 devices at secure group size 4 used to yield a trailing
	// group of 1, whose "group sum" is the raw individual update. The
	// remainder must fold into the full group, so all 5 updates land in one
	// secagg instance and the committed weight covers every device.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 5, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 21})
	store := storage.NewMem()
	p := testPlan(t, 5, true) // secure, group size 4
	srv, net, addr := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 1, Seed: 22,
	})
	fl := newFleet(t, 5, fed, 3)
	fl.run(net, addr)
	waitDone(t, srv, 90*time.Second)
	fl.halt()

	ckpt, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Every device holds 20 examples, so a round that kept all 5 updates
	// commits total weight 100. A stranded singleton (refused by the
	// aggregator) would leave only 80.
	if math.Abs(ckpt.Weight-100) > 1e-3 {
		t.Fatalf("committed weight = %v, want 100 (remainder update lost?)", ckpt.Weight)
	}
	ms, err := store.Metrics(p.ID)
	if err != nil || len(ms) == 0 {
		t.Fatalf("metrics: %v", err)
	}
	if n := ms[0].Stats["train_loss"].Count; n != 5 {
		t.Fatalf("train_loss count = %d, want 5", n)
	}
}

func TestAggregatorEvalMetricsOnly(t *testing.T) {
	sys := actor.NewSystem()
	self, _, _ := collectMaster(sys)
	defer sys.Shutdown(self)
	ri := newRoundIngest(2)
	rr := reportReader{self: self, dim: 2, evalOnly: true, ingest: ri}
	report(t, rr, "a", nil, map[string]float64{"eval_accuracy": 0.8})
	report(t, rr, "b", nil, map[string]float64{"eval_accuracy": 0.9})

	o, err := ri.seal(2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Reports != 2 || o.Acc.Count() != 0 || o.Acc.Weight() != 0 {
		t.Fatalf("eval outcome: reports %d, weight %v", o.Reports, o.Acc.Weight())
	}
	if len(o.Metrics["eval_accuracy"]) != 2 {
		t.Fatalf("metrics: %+v", o.Metrics)
	}
	// A training task's reader refuses a report without an update.
	rr.evalOnly = false
	if resp := report(t, rr, "c", nil, nil); resp.Accepted {
		t.Fatal("training report without an update accepted")
	}
}

func TestEvalTaskThroughServer(t *testing.T) {
	fed, _ := data.Blobs(data.BlobsConfig{Users: 8, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 13})
	store := storage.NewMem()
	evalPlan, err := plan.Generate(plan.Config{
		TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model:     testPlan(t, 4, false).Device.Model,
		StoreName: "clicks", TargetDevices: 4, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, net, addr := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{evalPlan}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 2, Seed: 14,
	})
	fl := newFleet(t, 8, fed, 3)
	fl.run(net, addr)
	waitDone(t, srv, 60*time.Second)
	fl.halt()

	// Eval rounds commit metrics, never checkpoints.
	if _, err := store.LatestCheckpoint(evalPlan.ID); err == nil {
		t.Fatal("eval task must not commit model checkpoints")
	}
	ms, err := store.Metrics(evalPlan.ID)
	if err != nil || len(ms) < 2 {
		t.Fatalf("eval metrics: %d, %v", len(ms), err)
	}
	if _, ok := ms[0].Stats["eval_accuracy"]; !ok {
		t.Fatalf("missing eval_accuracy: %+v", ms[0].Stats)
	}
}

func TestMultiTaskRoundRobin(t *testing.T) {
	// Sec. 7.1: "the FL service chooses among them using a dynamic strategy
	// that allows alternating between training and evaluation of a single
	// model". Deploy a train task and an eval task; both make progress.
	fed, _ := data.Blobs(data.BlobsConfig{Users: 10, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 15})
	store := storage.NewMem()
	train := testPlan(t, 4, false)
	eval, err := plan.Generate(plan.Config{
		TaskID: "pop/eval", Population: "pop", Type: plan.TaskEval,
		Model: train.Device.Model, StoreName: "clicks",
		TargetDevices: 4, MinReportFraction: 0.6,
		SelectionTimeout: 2 * time.Second, ReportTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, net, addr := runServer(t, Config{
		Population: "pop", Plans: []*plan.Plan{train, eval}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 4, Seed: 16,
	})
	fl := newFleet(t, 10, fed, 3)
	fl.run(net, addr)
	waitDone(t, srv, 90*time.Second)
	fl.halt()

	if _, err := store.LatestCheckpoint(train.ID); err != nil {
		t.Fatalf("train task never committed: %v", err)
	}
	evalMetrics, _ := store.Metrics(eval.ID)
	if len(evalMetrics) == 0 {
		t.Fatal("eval task never ran")
	}
}

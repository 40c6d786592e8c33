package flserver

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/robust"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// roundIngest is the striped edge-accumulation state of one plaintext
// round: GOMAXPROCS mutex-striped partial accumulators that the per-device
// connection readers fold decoded updates into directly. The per-device hot
// loop performs zero O(dim) allocations and zero O(dim) actor-mailbox hops;
// at window close the stripes are sealed into one sum (fedavg.SealStripes).
type roundIngest struct {
	stripes []*fedavg.PartialAccumulator
	next    atomic.Uint64
}

// newRoundIngest builds one stripe per processor for dim-sized updates.
func newRoundIngest(dim int) *roundIngest {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	ri := &roundIngest{stripes: make([]*fedavg.PartialAccumulator, n)}
	for i := range ri.stripes {
		ri.stripes[i] = fedavg.NewPartial(dim)
	}
	return ri
}

// stripe hands out stripes round-robin, spreading concurrent readers across
// the stripe locks.
func (ri *roundIngest) stripe() *fedavg.PartialAccumulator {
	return ri.stripes[ri.next.Add(1)%uint64(len(ri.stripes))]
}

// close seals every stripe: folds that lost the race against finalization
// get fedavg.ErrPartialClosed instead of silently landing in a merged (or
// abandoned) round.
func (ri *roundIngest) close() {
	for _, s := range ri.stripes {
		s.Close()
	}
}

// seal is a plaintext round's window close: it drains (and so closes) the
// stripes and merges them with fedavg.SealStripes, the same call
// EdgeRound.seal makes.
func (ri *roundIngest) seal(dim int) (RoundOutcome, error) {
	sealed, err := fedavg.SealStripes(ri.stripes)
	acc := fedavg.NewAccumulator(dim)
	if err == nil {
		err = acc.AddSealed(sealed)
	}
	return RoundOutcome{Acc: acc, Reports: sealed.Count + sealed.EvalCount, Metrics: sealed.Metrics}, err
}

// reports counts the device reports already folded into the stripes
// (updates plus metrics-only). The round actor's accounting lags the folds
// by one mailbox hop, so window-close decisions consult this ground truth
// rather than fail a round whose reports physically arrived.
func (ri *roundIngest) reports() int {
	n := 0
	for _, s := range ri.stripes {
		n += s.Reports()
	}
	return n
}

// respGate bounds concurrent off-goroutine response sends process-wide, so
// a flood of rejections cannot hold unbounded frame buffers in flight.
var respGate = make(chan struct{}, 256)

// sendThenClose delivers msg to conn on its own goroutine and then closes
// the connection. Every path that answers a device from an actor goroutine
// (rejections and aborts) routes through here: a stalled socket blocks one
// pooled goroutine for at most abortGrace — never an actor, never the
// round.
func sendThenClose(conn transport.Conn, msg interface{}) {
	go func() {
		respGate <- struct{}{}
		defer func() { <-respGate }()
		sendWithGrace(conn, msg)
	}()
}

// sendWithGrace attempts one send, bounded by abortGrace, then closes the
// conn regardless — the Close also unblocks the inner Send if the peer
// checked in and then never drained its socket (Conn has no write
// deadline).
func sendWithGrace(conn transport.Conn, msg interface{}) {
	sent := make(chan struct{})
	go func() {
		_ = conn.Send(msg)
		close(sent)
	}()
	// This runs once per report on the hot path: stop the timer as soon as
	// the (typical, microsecond) send completes, rather than leaving K live
	// timers per round to expire on their own.
	grace := time.NewTimer(abortGrace)
	select {
	case <-sent:
		grace.Stop()
	case <-grace.C:
	}
	_ = conn.Close()
}

// abortGrace bounds how long an over-selected device gets to take delivery
// of its Abort message before its connection is torn down regardless.
const abortGrace = 5 * time.Second

// configJob is one device's Configuration send, executed on the fan-out
// worker pool: resp is the device's version's shared pre-framed response,
// claim the device's answer claim (see reportReader.read).
type configJob struct {
	deviceID string
	conn     transport.Conn
	resp     *transport.Encoded
	claim    *atomic.Bool
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

// fanOut is the Configuration phase's send half, shared by both round
// actors (MasterAggregator and EdgeRound). Every job's pre-framed response
// goes out on a bounded worker pool, so one slow or dead socket never
// stalls the actor; a failed send closes the conn and posts msgDeviceLost,
// and each configured connection gets a reader goroutine that consumes its
// report at the edge. done receives the fan-out's wall time once every send
// finished, or after wait: a peer that checks in and then never drains its
// socket can block a worker's Send indefinitely (Conn has no write
// deadline), and the round must still time out rather than hang — the
// round's window close then closes that conn, unblocking the worker.
func fanOut(jobs []configJob, rr reportReader, wait time.Duration, done func(time.Duration)) {
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
					_ = rr.self.Send(msgDeviceLost{DeviceID: j.deviceID})
				} else {
					go rr.read(j)
				}
				sends.Done()
			}
		}()
	}
	start := time.Now()
	go func() {
		sent := make(chan struct{})
		go func() {
			sends.Wait()
			close(sent)
		}()
		capped := time.NewTimer(wait)
		select {
		case <-sent:
			capped.Stop()
		case <-capped.C:
		}
		done(time.Since(start))
	}()
}

// reportReader is what a per-device connection reader needs to consume one
// report at the edge: plaintext rounds decode-and-accumulate into the
// round's stripes; retention rounds (per-update robust policies and secure
// aggregation) decode each update into a pooled vector kept in the round's
// robust.Buffer until the window closes.
type reportReader struct {
	self     actor.Ref
	dim      int
	evalOnly bool
	ingest   *roundIngest
	// clip, when positive, is the norm-bound policy's L2 bound on each
	// update's per-example average: over-norm updates are folded through
	// checkpoint.Meta.AccumulateParamsScaled instead of AccumulateParams —
	// still two streaming passes over the wire bytes, still zero O(dim)
	// allocation.
	clip float64
	// buf, when set, is the round's retention buffer: the window close needs
	// individual updates, so readers decode into pooled vectors instead of
	// folding into stripes.
	buf *robust.Buffer
	// withWeight retains delta‖weight (a dim+1 vector) rather than the bare
	// delta: secure aggregation carries the weight through the masked sum
	// so the server learns Σn without individual n's.
	withWeight bool
	// clipped counts edge clips for the round (the round actor's counter);
	// obsClipped is the task-labeled series, resolved once per round.
	clipped    *atomic.Int64
	obsClipped *obs.Counter
}

// read blocks for one device's ReportRequest and consumes it at the edge:
// the O(devices × dim) decode work runs on the per-device reader goroutines
// concurrently, and only fixed-size accounting messages reach the round
// actor — never a parameter vector.
//
// Each configured device gets exactly one answer, and it matches its fate.
// The reader and the round's window close race for the device's claim:
// whoever takes it first answers. A reader that takes it folds (or retains)
// the report and acks it, or rejects it — including "window closed" when
// the seal beat its fold — and a window close that takes it aborts the
// device, whose report is then never folded.
func (r reportReader) read(j configJob) {
	deviceID, conn := j.deviceID, j.conn
	msg, err := conn.Recv()
	req, ok := msg.(protocol.ReportRequest)
	if err != nil || !ok {
		_ = conn.Close()
		obsDevicesLost.Inc()
		_ = r.self.Send(msgDeviceLost{DeviceID: deviceID})
		return
	}
	if !j.claim.CompareAndSwap(false, true) {
		// The window closed first: the device's Abort is its answer.
		obsReportsLate.Inc()
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
	// settle answers a folded-or-retained report with an ack, and one that
	// lost the race against the window's seal (the '#' outcome of Table 1)
	// with "window closed" — no accounting then: the round already settled
	// this device's fate.
	settle := func(err error) {
		switch {
		case errors.Is(err, fedavg.ErrPartialClosed), errors.Is(err, robust.ErrBufferClosed):
			obsReportsLate.Inc()
			sendWithGrace(conn, protocol.ReportResponse{Accepted: false, Reason: "reporting window closed"})
		case err != nil:
			reject(err.Error())
		default:
			obsReportsOK.Inc()
			_ = r.self.Send(msgReportDone{DeviceID: deviceID, OK: true})
			sendWithGrace(conn, protocol.ReportResponse{Accepted: true})
		}
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
		if r.buf != nil {
			settle(r.buf.AddEval(req.Metrics))
		} else {
			settle(r.ingest.stripe().AddEval(req.Metrics))
		}
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
	if r.buf != nil {
		// Retention: decode into a pooled vector the window close consumes.
		// Acceptance means "retained" — a later defensive trim, robust
		// rejection or secure-group failure is the server's business,
		// attributed in msgRoundComplete.
		settle(r.buf.Add(deviceID, meta.Weight, req.Metrics, func(dst tensor.Vector) error {
			if r.withWeight {
				dst[r.dim] = meta.Weight
			}
			return meta.DecodeParams(req.Update, dst[:r.dim])
		}))
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
	if err == nil {
		obsEdgeFolds.Inc()
	}
	settle(err)
}

package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// rejectBackoff is the fixed pause before a rejected device checks in
// again. It is short so that a round never waits long for its devices, and
// fixed so that the fleet ignores the pace-steering hint: the benchmark
// measures the server at a known load, not pace steering's spread.
const rejectBackoff = 2 * time.Millisecond

// outcome is one report whose fate matters to the reference check: the
// device, the round it served, the settlement count read before its
// check-in (which attempt it belongs to), and whether it was acked. An
// unacked outcome is a report answered by an Abort or not at all: the
// program may or may not have folded it.
type outcome struct {
	device int
	round  int64
	from   int
	acked  bool
}

// fleetCounts are the devices' own tallies. Over-selection aborts and
// reports that lost the race with the closing window are by design and
// kept apart from failures.
type fleetCounts struct {
	checkins, rejected, accepted              int64
	reportsSent, reportsOK, reportsLate       int64
	reportsRejected, reportsAborted, noAnswer int64
}

// fleet is the closed-loop device population: exactly SelectTarget
// devices, each replaying its pre-encoded update. A device checks in,
// reports, then waits until the round it took part in settles before it
// checks in again. Devices neither train nor decode the checkpoint they
// download, so nearly all process CPU is server work. Traced, each
// accepted session is a device.session span whose children are
// device.checkin (check-in sent → CheckinResponse), device.report (report
// sent → answer) and device.gate (the wait for the round to settle); the
// devices' Send calls are device.send spans below them.
type fleet struct {
	population string
	in         *inputs
	dial       func(device int) (transport.Conn, error)
	store      *benchStore
	tr         *tracerSlot

	stop atomic.Bool
	wg   sync.WaitGroup

	mu       sync.Mutex
	conns    map[int]transport.Conn
	outcomes []outcome

	checkins, rejected, accepted              atomic.Int64
	reportsSent, reportsOK, reportsLate       atomic.Int64
	reportsRejected, reportsAborted, noAnswer atomic.Int64
}

func newFleet(population string, in *inputs, store *benchStore, tr *tracerSlot, dial func(int) (transport.Conn, error)) *fleet {
	return &fleet{population: population, in: in, dial: dial, store: store, tr: tr,
		conns: make(map[int]transport.Conn)}
}

func (f *fleet) start() {
	for i := range f.in.ids {
		f.wg.Add(1)
		go f.device(i)
	}
}

func (f *fleet) counts() fleetCounts {
	return fleetCounts{
		checkins: f.checkins.Load(), rejected: f.rejected.Load(), accepted: f.accepted.Load(),
		reportsSent: f.reportsSent.Load(), reportsOK: f.reportsOK.Load(), reportsLate: f.reportsLate.Load(),
		reportsRejected: f.reportsRejected.Load(), reportsAborted: f.reportsAborted.Load(),
		noAnswer: f.noAnswer.Load(),
	}
}

// reports returns every acked or unresolved report so far.
func (f *fleet) reports() []outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]outcome(nil), f.outcomes...)
}

func (f *fleet) note(o outcome) {
	f.mu.Lock()
	f.outcomes = append(f.outcomes, o)
	f.mu.Unlock()
}

// drain stops the fleet: no device checks in again, and sessions already
// under way finish. Once no round has settled for settleQuiet (at most
// drainMax) the topology is closed, and every connection still open, a
// device parked for a round that cannot fill, is closed with it. drain
// returns once every device goroutine has ended.
func (f *fleet) drain(closeTopology func()) {
	f.stop.Store(true)
	f.store.release()
	deadline := time.Now().Add(drainMax)
	for n := -1; n != f.store.seq() && time.Now().Before(deadline); {
		n = f.store.seq()
		time.Sleep(settleQuiet)
	}
	closeTopology()
	f.mu.Lock()
	for _, c := range f.conns {
		_ = c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// settleQuiet and drainMax bound how long drain waits for the rounds in
// flight to settle.
const (
	settleQuiet = 250 * time.Millisecond
	drainMax    = 5 * time.Second
)

func (f *fleet) device(i int) {
	defer f.wg.Done()
	for !f.stop.Load() {
		from := f.store.seq()
		conn, err := f.dial(i)
		if err != nil {
			time.Sleep(rejectBackoff)
			continue
		}
		f.mu.Lock()
		f.conns[i] = conn
		f.mu.Unlock()
		t := f.tr.get()
		var sessID int64
		if t != nil {
			sessID = t.newID()
		}
		start := time.Now()
		round, accepted := f.session(t, sessID, i, conn, from)
		f.mu.Lock()
		delete(f.conns, i)
		f.mu.Unlock()
		_ = conn.Close()
		if !accepted {
			time.Sleep(rejectBackoff)
			continue
		}
		waitStart := time.Now()
		f.store.waitSettled(from, round)
		if t != nil {
			end := time.Now()
			t.span("device.gate", round, sessID, waitStart, end)
			t.record(sessID, 0, "device.session", round, start, end)
		}
	}
}

// send is conn.Send, traced as a device.send span under parent.
func (f *fleet) send(t *tracer, conn transport.Conn, msg interface{}, parent, round int64) error {
	if t == nil {
		return conn.Send(msg)
	}
	start := time.Now()
	err := conn.Send(msg)
	t.span("device.send", round, parent, start, time.Now())
	return err
}

// session runs one check-in and, when accepted, one report. It returns the
// round the device was accepted into. With a tracer, its spans are
// children of the device session sessID.
func (f *fleet) session(t *tracer, sessID int64, i int, conn transport.Conn, from int) (round int64, accepted bool) {
	var checkinID int64
	var checkinStart time.Time
	if t != nil {
		checkinID = t.newID()
		checkinStart = time.Now()
	}
	f.checkins.Add(1)
	req := protocol.CheckinRequest{DeviceID: f.in.ids[i], Population: f.population, RuntimeVersion: 3}
	if err := f.send(t, conn, req, checkinID, -1); err != nil {
		f.rejected.Add(1)
		return 0, false
	}
	msg, err := conn.Recv()
	resp, ok := msg.(protocol.CheckinResponse)
	if err != nil || !ok || !resp.Accepted {
		f.rejected.Add(1)
		return 0, false
	}
	f.accepted.Add(1)
	round = resp.Round
	var reportID int64
	var reportStart time.Time
	if t != nil {
		reportStart = time.Now()
		t.record(checkinID, sessID, "device.checkin", round, checkinStart, reportStart)
		reportID = t.newID()
	}

	report := protocol.ReportRequest{DeviceID: f.in.ids[i], TaskID: resp.TaskID, Round: resp.Round,
		Update: f.in.payloads[i]}
	f.reportsSent.Add(1)
	sendErr := f.send(t, conn, report, reportID, round)
	msg, err = conn.Recv()
	if t != nil {
		t.record(reportID, sessID, "device.report", round, reportStart, time.Now())
	}
	o := outcome{device: i, round: round, from: from}
	switch m := msg.(type) {
	case protocol.ReportResponse:
		switch {
		case m.Accepted && sendErr == nil:
			f.reportsOK.Add(1)
			o.acked = true
			f.note(o)
		case m.Reason == "reporting window closed":
			f.reportsLate.Add(1)
		default:
			f.reportsRejected.Add(1)
		}
	case protocol.Abort:
		f.reportsAborted.Add(1)
		f.note(o)
	default:
		f.noAnswer.Add(1)
		f.note(o)
	}
	return round, true
}

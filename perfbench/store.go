package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
)

// settlement is one round attempt reaching its end at the store: a
// committed checkpoint, or a RoundTrace recording a failure.
type settlement struct {
	seq       int
	at        time.Time
	round     int64 // the round index the attempt served
	committed bool
	weight    float64 // committed checkpoint weight (Σ report weights)
	// probe is the committed model at the store's probe coordinates.
	probe []float64
	// trace is the program's RoundTrace for the attempt; traced is false
	// until it has arrived (commits write the trace after the checkpoint).
	trace  obs.RoundTrace
	traced bool
}

// benchStore is the storage.Store the benchmark hands to the program. It
// wraps storage.Mem for metrics, the task set and round traces, and keeps
// only the newest checkpoint (a fresh storage.Mem per commit), so a run of
// thousands of rounds holds one global model instead of every one of them.
//
// Every commit and every failed RoundTrace is a settlement. Settlements
// wake the devices gated on them and are logged for the round timers and
// the reference check.
type benchStore struct {
	meta *storage.Mem
	tr   *tracerSlot
	// probes are the coordinates recorded from every commit, so that the
	// reference check can verify each round and not only the final model.
	probes []int

	mu      sync.Mutex
	cond    *sync.Cond
	latest  *storage.Mem
	settled []settlement
	// committedThrough is the highest round index whose commit was seen.
	committedThrough int64
	// failedSeq maps a round index to the seq of its latest failed attempt.
	failedSeq map[int64]int
	closed    bool
}

func newBenchStore(tr *tracerSlot, probes []int) *benchStore {
	s := &benchStore{
		meta:             storage.NewMem(),
		probes:           probes,
		tr:               tr,
		latest:           storage.NewMem(),
		committedThrough: -1,
		failedSeq:        make(map[int64]int),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// PutCheckpoint implements storage.Store. The put itself is storage.Mem's;
// a fresh Mem per commit is the retention policy.
func (s *benchStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	at := time.Now()
	fresh := storage.NewMem()
	if err := fresh.PutCheckpoint(c); err != nil {
		return err
	}
	if t := s.tr.get(); t != nil {
		t.span("store.put", c.Round-1, 0, at, time.Now())
	}
	// A model of the wrong size records no probe; the check reports it.
	var probe []float64
	if len(c.Params) > s.probes[len(s.probes)-1] {
		probe = make([]float64, len(s.probes))
		for i, j := range s.probes {
			probe[i] = c.Params[j]
		}
	}
	s.mu.Lock()
	s.latest = fresh
	s.settled = append(s.settled, settlement{
		seq: len(s.settled) + 1, at: at, round: c.Round - 1, committed: true,
		weight: c.Weight, probe: probe,
	})
	if c.Round-1 > s.committedThrough {
		s.committedThrough = c.Round - 1
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

// LatestCheckpoint implements storage.Store.
func (s *benchStore) LatestCheckpoint(task string) (*checkpoint.Checkpoint, error) {
	s.mu.Lock()
	latest := s.latest
	s.mu.Unlock()
	return latest.LatestCheckpoint(task)
}

// PutMetrics implements storage.Store.
func (s *benchStore) PutMetrics(m *metrics.Materialized) error { return s.meta.PutMetrics(m) }

// Metrics implements storage.Store.
func (s *benchStore) Metrics(task string) ([]*metrics.Materialized, error) {
	return s.meta.Metrics(task)
}

// PutTaskSet implements storage.Store.
func (s *benchStore) PutTaskSet(b []byte) error { return s.meta.PutTaskSet(b) }

// TaskSet implements storage.Store.
func (s *benchStore) TaskSet() ([]byte, error) { return s.meta.TaskSet() }

// PutRoundTrace implements obs.TraceStore. A committed trace completes the
// settlement its checkpoint opened; a failed one is a settlement of its own.
func (s *benchStore) PutRoundTrace(t obs.RoundTrace) error {
	at := time.Now()
	if err := s.meta.PutRoundTrace(t); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Committed {
		for i := len(s.settled) - 1; i >= 0; i-- {
			st := &s.settled[i]
			if st.committed && st.round == t.Round-1 && !st.traced {
				st.trace, st.traced = t, true
				return nil
			}
		}
		return fmt.Errorf("perfbench: committed trace for round %d has no checkpoint", t.Round)
	}
	seq := len(s.settled) + 1
	s.settled = append(s.settled, settlement{seq: seq, at: at, round: t.Round, trace: t, traced: true})
	s.failedSeq[t.Round] = seq
	s.cond.Broadcast()
	return nil
}

// seq is the number of settlements so far.
func (s *benchStore) seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.settled)
}

// waitSettled blocks a device that took part in an attempt at round until
// that attempt settles. from is the settlement count read before the
// device checked in: the attempt settles after the check-in, so a commit of
// round, or a failure of round with a later seq, is its settlement.
func (s *benchStore) waitSettled(from int, round int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.committedThrough < round && s.failedSeq[round] <= from {
		s.cond.Wait()
	}
}

// waitCount blocks until at least n settlements have happened or the
// deadline passes; it reports whether n was reached.
func (s *benchStore) waitCount(n int, deadline time.Time) bool {
	timer := time.AfterFunc(time.Until(deadline), s.cond.Broadcast)
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.settled) < n && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return len(s.settled) >= n
}

// release wakes every gated device for good.
func (s *benchStore) release() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// settlements returns a copy of the settlement log.
func (s *benchStore) settlements() []settlement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]settlement(nil), s.settled...)
}

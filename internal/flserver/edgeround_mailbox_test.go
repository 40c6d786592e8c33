package flserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestEdgeRoundTopUpsNeverBlockOnSelector is the regression test for the
// Selector↔EdgeRound mailbox deadlock: a Selector streaming devices one
// message at a time blocks once the round's mailbox is full, and a round
// that answered each duplicate check-in with a blocking quota top-up into
// that Selector's full mailbox never drained its own again. The stand-in
// Selector here streams far more duplicates than both mailboxes hold; the
// round must keep draining, seal on demand, and deliver every top-up to the
// Selector before its quota revocation.
func TestEdgeRoundTopUpsNeverBlockOnSelector(t *testing.T) {
	const dups = 3 * 1024 // three actor mailboxes' worth
	sys := actor.NewSystem()
	defer sys.Shutdown()

	forwarded := make(chan struct{})
	afterForward := make(chan actor.Message, dups+16)
	sel := sys.Spawn("sel", actor.BehaviorFunc(func(ctx *actor.Context, msg actor.Message) {
		select {
		case <-forwarded:
			afterForward <- msg
			return
		default:
		}
		fwd, ok := msg.(msgForwardDevices)
		if !ok {
			return
		}
		// Stream the same device again and again, one message each, as a
		// Selector forwards check-ins: every repeat is a duplicate the round
		// rejects and tops up.
		for i := 0; i <= dups; i++ {
			srv, dev := transport.Pipe()
			if i > 0 {
				_ = dev.Close()
			}
			if err := fwd.To.Send(msgDevices{Devices: []heldDevice{{ID: "dup", Conn: srv}}}); err != nil {
				t.Errorf("forward %d: %v", i, err)
				break
			}
		}
		close(forwarded)
	}))

	seals := make(chan EdgeSeal, 1)
	round := StartEdgeRound(sys, "edge-mailbox-test", EdgeRoundConfig{
		Population: "pop", TaskID: "task", Round: 1, Dim: 4, Target: 1,
		ReportTimeout: time.Minute, Linger: 100 * time.Millisecond,
	}, []actor.Ref{sel}, func(s EdgeSeal) { seals <- s })

	select {
	case <-forwarded:
	case <-time.After(20 * time.Second):
		t.Fatal("selector and edge round deadlocked on each other's full mailboxes")
	}
	FinalizeEdgeRound(round)
	select {
	case <-seals:
	case <-time.After(10 * time.Second):
		t.Fatal("edge round never sealed")
	}

	// Every top-up reaches the Selector, all of them before the seal's
	// revocation.
	topUps := 0
	for {
		select {
		case msg := <-afterForward:
			switch m := msg.(type) {
			case msgQuotaTopUp:
				topUps += m.N
			case msgSetQuota:
				t.Fatalf("unexpected quota grant %+v", m)
			case msgRevokeQuota:
				if m.Round != round {
					t.Fatalf("revocation names %v, want the round %v", m.Round, round)
				}
				if topUps != dups {
					t.Fatalf("revocation arrived after %d of %d top-ups", topUps, dups)
				}
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("selector got %d of %d top-ups and no revocation", topUps, dups)
		}
	}
}

// fullSelector stands in for a Selector whose mailbox fills up while a
// round is running: grants and forwards are accepted, the first top-up or
// revocation blocks until release closes.
type fullSelector struct {
	once    sync.Once
	blocked chan struct{}
	release chan struct{}
}

func (r *fullSelector) Name() string  { return "full-selector" }
func (r *fullSelector) Stop()         {}
func (r *fullSelector) Stopped() bool { return false }
func (r *fullSelector) Send(msg actor.Message) error {
	switch msg.(type) {
	case msgQuotaTopUp, msgRevokeQuota:
		r.once.Do(func() {
			r.blocked <- struct{}{}
			<-r.release
		})
	}
	return nil
}

// revocationRelay forwards to a real Selector and signals once it has
// delivered a quota revocation.
type revocationRelay struct {
	actor.Ref
	revoked chan struct{}
}

func (r *revocationRelay) Send(msg actor.Message) error {
	err := r.Ref.Send(msg)
	if _, ok := msg.(msgRevokeQuota); ok {
		r.revoked <- struct{}{}
	}
	return err
}

// TestStaleRevocationNeverStarvesNextRound: an abandoned round's top-ups
// and quota revocation can reach a Selector after the next round's grant
// (here: they wait in the round's outbox behind a Selector with a full
// mailbox while the next round starts). The Selector must ignore both — a
// stale revocation would zero the new round's quota, a stale top-up would
// divert its device stream to the dead round — and a device checking in
// afterwards must still stream to the new round.
func TestStaleRevocationNeverStarvesNextRound(t *testing.T) {
	sys := actor.NewSystem()
	defer sys.Shutdown()
	sel := spawnSelector(sys, "sel", 0, 1, "pop")
	granted := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); popStats(t, sel, "pop").QuotaGranted < want; {
			if time.Now().After(deadline) {
				t.Fatalf("selector never granted %d slots", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	full := &fullSelector{blocked: make(chan struct{}, 1), release: make(chan struct{})}
	relay := &revocationRelay{Ref: sel, revoked: make(chan struct{}, 1)}
	cfg := EdgeRoundConfig{
		Population: "pop", TaskID: "task", Round: 1, Dim: 4, Target: 1, Admit: 2,
		ReportTimeout: time.Minute, Linger: 100 * time.Millisecond,
	}
	round1 := StartEdgeRound(sys, "round-1", cfg, []actor.Ref{full, relay}, nil)
	granted(1)
	// One device, then two duplicate check-ins of it: the round tops up
	// each selector once, round-robin — the full one first.
	for i := 0; i < 3; i++ {
		srv, dev := transport.Pipe()
		if i > 0 {
			_ = dev.Close()
		} else {
			go func() {
				for _, err := dev.Recv(); err == nil; _, err = dev.Recv() {
				}
			}()
		}
		_ = round1.Send(msgDevices{Devices: []heldDevice{{ID: "dup", Conn: srv}}})
	}
	<-full.blocked // round 1's top-up for sel now queues behind this one
	AbandonEdgeRound(round1, "superseded by a newer round")

	cfg.Round, cfg.Admit = 2, 1
	StartEdgeRound(sys, "round-2", cfg, []actor.Ref{sel}, nil)
	granted(2)
	close(full.release)
	select {
	case <-relay.revoked:
	case <-time.After(10 * time.Second):
		t.Fatal("round 1's revocation never reached the selector")
	}

	responses := make(chan protocol.CheckinResponse, 4)
	checkin(sel, "pop", "dev", func(r protocol.CheckinResponse) { responses <- r })
	select {
	case r := <-responses:
		if !r.Accepted || r.Round != 2 {
			t.Fatalf("device not configured into round 2: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round 2 never received the device")
	}
}

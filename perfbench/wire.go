package main

import (
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// peerWire wraps the sharded topology's peer links: the coordinator's
// listener and the shards' dialer. While tracing it counts frame bytes in
// each direction at the coordinator's end and records a peer.send span per
// frame sent at either end.
type peerWire struct {
	tr        *tracerSlot
	bytesDown atomic.Int64 // coordinator → shards
	bytesUp   atomic.Int64 // shards → coordinator
	// configs and seals count the round-carrying bulk frames: RoundConfig
	// down, StripeSeal up.
	configs atomic.Int64
	seals   atomic.Int64
}

// frameHeader is the TCP transport's per-frame overhead: u32 length,
// wire version and type code.
const frameHeader = 6

// unwrap returns the message a pre-framed *transport.Encoded carries.
func unwrap(msg interface{}) interface{} {
	if e, ok := msg.(*transport.Encoded); ok {
		return e.Message()
	}
	return msg
}

// frameBytes is the binary-codec frame size of msg, 0 for other types.
func frameBytes(msg interface{}) int64 {
	_, parts, ok := protocol.MarshalBinaryParts(unwrap(msg))
	if !ok {
		return 0
	}
	n := int64(frameHeader)
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// frameRound is the round a round-carrying frame belongs to, or -1.
func frameRound(msg interface{}) int64 {
	switch m := unwrap(msg).(type) {
	case protocol.RoundConfig:
		return m.Round
	case protocol.StripeSeal:
		return m.Round
	case protocol.RoundFinalize:
		return m.Round
	}
	return -1
}

type peerListener struct {
	transport.Listener
	w *peerWire
}

func (w *peerWire) listener(l transport.Listener) transport.Listener {
	return &peerListener{Listener: l, w: w}
}

func (l *peerListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.w.conn(c, "coordinator"), nil
}

// peerConn is one end of a peer link; side is "coordinator" or "shard".
type peerConn struct {
	transport.Conn
	w    *peerWire
	side string
}

func (w *peerWire) conn(c transport.Conn, side string) transport.Conn {
	return &peerConn{Conn: c, w: w, side: side}
}

func (c *peerConn) Send(msg interface{}) error {
	t := c.w.tr.get()
	if t == nil {
		return c.Conn.Send(msg)
	}
	start := time.Now()
	err := c.Conn.Send(msg)
	t.span("peer.send", frameRound(msg), 0, start, time.Now())
	if err == nil && c.side == "coordinator" {
		c.w.bytesDown.Add(frameBytes(msg))
		if _, ok := unwrap(msg).(protocol.RoundConfig); ok {
			c.w.configs.Add(1)
		}
	}
	return err
}

func (c *peerConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.side == "coordinator" && c.w.tr.get() != nil {
		c.w.bytesUp.Add(frameBytes(msg))
		if _, ok := msg.(protocol.StripeSeal); ok {
			c.w.seals.Add(1)
		}
	}
	return msg, err
}

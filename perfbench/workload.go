package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/transport"
)

// classes is the logistic model's class count: dim = 4·features + 4.
const classes = 4

// workload is one topology and input shape, run as a closed loop of real
// rounds.
type workload struct {
	name       string
	population string
	// k is the reports a round needs; the fleet is the plan's
	// SelectTarget() = round(1.3·k) devices (the plan's over-selection
	// default).
	k        int
	features int
	secure   bool
	// groupSize is the secure aggregation group size k of Sec. 6.
	groupSize int
	// minReportFraction is the plan's MinReportFraction; 0 keeps the
	// plan default (0.8).
	minReportFraction float64
	// shards > 0 runs the sharded deployment: one coordinator and this many
	// selector shards, peer links over loopback TCP.
	shards int
}

func (w workload) dim() int { return w.features*classes + classes }

var workloads = []workload{
	// fedavg-cohort: the paper's production round shape and the
	// report-ingest hot path. Single process, K=256 (333 devices),
	// dim 65,536, quant8 uplink, plaintext. Loads checkpoint
	// decode-and-fold (Meta.AccumulateParams into the round's stripes) and
	// selection of 333 check-ins per round. Bypasses secagg, the shard
	// tier and TCP.
	{name: "fedavg-cohort", population: "cohort", k: 256, features: 16383},
	// secagg-groups: the only workload that runs internal/secagg. Single
	// process, secure aggregation in groups of 16, K=64 (83 devices),
	// dim 4,096. Loads the share/commit/mask/unmask phases, and the
	// retention ingest path: each update is decoded into a pooled buffer
	// (DecodeParams) instead of folded, so a fold-path change that costs
	// the retention path shows here. Over-selection stays at 1.3, so the
	// aborted surplus can leave a group below its threshold: the round
	// then commits without that group (finding.acked_dropped). At the
	// plan's default minimum (0.8·K = 51) a round that loses two groups
	// fails, in 1–2% of rounds at random, so no two runs agree on how many
	// fail; the minimum is 0.7·K = 45 instead, below the 47 reports the
	// worst case leaves (worstCaseSurvivors), and no round fails.
	// Bypasses the fold, the shard tier and TCP.
	{name: "secagg-groups", population: "secure", k: 64, features: 1023, secure: true, groupSize: 16,
		minReportFraction: 0.7},
	// shard-tree: the aggregation tree's upper tier and the receive path.
	// One coordinator and 2 shards (one per core) over loopback TCP
	// peer links; devices in memory. K=8 (10 devices), dim 1,048,576,
	// quant8 uplink. Every round sends an 8 MiB float64 RoundConfig down
	// each peer link and an 8 MiB sealed stripe up; both exceed the
	// transport's 4 MiB exact allocation, so readPayload's growth branch
	// runs on every frame. Also loads MarshalSum/UnmarshalSum, the
	// coordinator merge and an 8 MiB commit. Bypasses secagg; selection is
	// only 10 check-ins.
	{name: "shard-tree", population: "tree", k: 8, features: 262143, shards: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topology is a running program instance and the dialer its devices use.
type topology struct {
	dial  func(device int) (transport.Conn, error)
	coord *shard.CoordinatorProc // sharded only
	// wire counts the peer-link frames of a sharded topology.
	wire  *peerWire
	close func()
}

// startTopology builds the program through the public constructors the
// binaries use, handing it the benchmark's store, listeners and peer dialer.
func startTopology(w workload, in *inputs, store *benchStore, tr *tracerSlot, seed uint64) (*topology, error) {
	if w.shards == 0 {
		return startSingle(w, in, store, seed)
	}
	return startSharded(w, in, store, tr, seed)
}

func startSingle(w workload, in *inputs, store *benchStore, seed uint64) (*topology, error) {
	srv, err := repro.NewServer(repro.ServerConfig{
		Population: w.population,
		Plans:      []*plan.Plan{in.plan},
		Store:      store,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	mem := repro.NewMemNetwork()
	l, err := mem.Listen("server")
	if err != nil {
		srv.Close()
		return nil, err
	}
	go srv.Serve(l)
	return &topology{
		dial: func(int) (transport.Conn, error) { return mem.Dial("server") },
		close: func() {
			_ = l.Close()
			srv.Close()
		},
	}, nil
}

// edgeLinger is the shards' sealed-round linger (flselector -edge-linger).
// A lingering edge round still holds its stripes and the RoundConfig it
// was opened with, 24 MB at this dim: at the 2 s default the process held
// about 2.2 GB on a 2-core host, which a shared host cannot spare. 250 ms
// is still far beyond the Selectors' mailbox backlog the linger outlasts.
const edgeLinger = 250 * time.Millisecond

func startSharded(w workload, in *inputs, store *benchStore, tr *tracerSlot, seed uint64) (*topology, error) {
	coord, err := shard.NewCoordinatorProc(shard.CoordinatorConfig{
		Population: w.population,
		Plans:      []*plan.Plan{in.plan},
		Store:      store,
		MinShards:  w.shards,
	})
	if err != nil {
		return nil, err
	}
	wire := &peerWire{tr: tr}
	cl, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	go coord.Serve(wire.listener(cl))
	addr := cl.Addr()
	dialPeer := remote.Dialer(func() (transport.Conn, error) {
		c, err := transport.DialTCP(addr)
		if err != nil {
			return nil, err
		}
		return wire.conn(c, "shard"), nil
	})

	mem := transport.NewMemNetwork()
	procs := make([]*shard.SelectorProc, w.shards)
	listeners := make([]transport.Listener, w.shards)
	closeAll := func() {
		for i, sp := range procs {
			if listeners[i] != nil {
				_ = listeners[i].Close()
			}
			if sp != nil {
				sp.Close()
			}
		}
		_ = cl.Close()
		coord.Close()
	}
	for i := range procs {
		procs[i] = shard.NewSelectorProc(shard.SelectorConfig{
			Shard:      uint32(i),
			Seed:       seed + uint64(i)*131,
			EdgeLinger: edgeLinger,
		}, dialPeer)
		l, err := mem.Listen(fmt.Sprintf("shard-%d", i))
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners[i] = l
		go procs[i].Serve(l)
	}
	return &topology{
		// Device i homes on shard i mod shards, as fldevices spreads its
		// -addrs list.
		dial:  func(i int) (transport.Conn, error) { return mem.Dial(fmt.Sprintf("shard-%d", i%w.shards)) },
		coord: coord,
		wire:  wire,
		close: closeAll,
	}, nil
}

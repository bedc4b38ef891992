package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/ldb"
	"dpq/internal/netrun"
	"dpq/internal/prio"
	"dpq/internal/relax"
	"dpq/internal/serve"
	"dpq/internal/sim"
	"dpq/internal/skeap"
)

// clusterSpec is one dpqd deployment: procs daemons sharing hosts virtual
// hosts, every daemon in this process, talking loopback TCP.
type clusterSpec struct {
	procs  int
	hosts  int
	relax  bool   // relax SampleK heap instead of skeap (single process)
	walDir string // non-empty: -wal <walDir>/d<proc> and -clients on every daemon
	traced bool   // install the benchmark's timing wrappers
}

// daemon is one dpqd process's worth of state.
type daemon struct {
	proc       int
	heap       serve.ProtocolHeap
	th         *tracedHeap // traced runs only
	srv        *serve.Server
	eng        *netrun.Engine
	fwd        *serve.AckForwarder
	rec        *serve.Reconciler
	ln         net.Listener
	proto      *handlerClock // protocol handlers (traced)
	outer      *handlerClock // transport-wrapped handlers (traced)
	remoteMsgs atomic.Int64  // deliveries from another daemon's nodes (traced)
}

type cluster struct {
	spec    clusterSpec
	tick    time.Duration
	daemons []*daemon
}

// newCluster assembles and starts a cluster the way cmd/dpqd's main does
// for each of its daemons; the comments marked "dpqd:" name each point
// where this assembly mirrors that main.
func newCluster(spec clusterSpec, d flagDefaults) (*cluster, error) {
	c := &cluster{spec: spec, tick: d.dur("tick")}
	// Pre-bound loopback listeners stand in for -peers and -client/-clients.
	peerLns := make([]net.Listener, spec.procs)
	addrs := make([]string, spec.procs)
	clientAddrs := make([]string, spec.procs)
	for p := 0; p < spec.procs; p++ {
		var err error
		if peerLns[p], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		addrs[p] = peerLns[p].Addr().String()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		clientAddrs[p] = ln.Addr().String()
		c.daemons = append(c.daemons, &daemon{proc: p, ln: ln})
	}
	seed := d.uint64("seed")
	prios := d.int("prios")

	// dpqd: contiguous host sharding, daemon p owns hosts [p·H/P, (p+1)·H/P).
	hostOwner := make([]int, spec.hosts)
	for p := 0; p < spec.procs; p++ {
		for h := p * spec.hosts / spec.procs; h < (p+1)*spec.hosts/spec.procs; h++ {
			hostOwner[h] = p
		}
	}
	for _, dm := range c.daemons {
		p := dm.proc
		// dpqd: every daemon builds the identical full heap from the shared
		// seed (-proto skeap, or -relax samplek with -relax-k).
		if spec.relax {
			h := relax.New(relax.Config{N: spec.hosts, Seed: seed, Mode: relax.SampleK,
				K: d.int("relax-k"), PrioBound: uint64(prios)})
			dm.heap = serve.NewRelaxHeap(h, uint64(prios))
		} else {
			dm.heap = serve.NewSkeapHeap(skeap.New(skeap.Config{N: spec.hosts, P: prios, Seed: seed}), prios)
		}
		var localHosts []int
		for h, o := range hostOwner {
			if o == p {
				localHosts = append(localHosts, h)
			}
		}

		// dpqd: with -clients in a multi-daemon cluster, acks replicate to
		// the owning daemon (process bits of the element id).
		var ownerOf func(prio.ElemID) int
		var peerAck func(int, prio.ElemID, func(error))
		if spec.procs > 1 && spec.walDir != "" {
			dm.fwd = serve.NewAckForwarder(clientAddrs)
			ownerOf = ownerOfID
			peerAck = dm.fwd.Forward
		}

		inner := dm.heap.Handlers()
		servedHeap := serve.Heap(dm.heap)
		var observer func(sim.Delivery)
		if spec.traced {
			dm.proto, dm.outer = &handlerClock{}, &handlerClock{}
			inner = timeHandlers(inner, dm.proto)
			dm.th = newTracedHeap(dm.heap)
			servedHeap = dm.th.served()
			observer = func(dl sim.Delivery) {
				if hostOwner[ldb.HostOf(dl.From)] != p {
					dm.remoteMsgs.Add(1)
				}
			}
		}
		// dpqd: reliable transport around every protocol handler.
		handlers, transports := sim.WrapAllReliable(inner, sim.DefaultTransportConfig())
		if spec.traced {
			handlers = timeHandlers(handlers, dm.outer)
		}
		groups, group := dm.heap.Overlay().Group()
		nodeOwner := func(id sim.NodeID) int { return hostOwner[ldb.HostOf(id)] }
		anchorProc := nodeOwner(dm.heap.Overlay().Anchor)

		hb := d.dur("heartbeat")
		if spec.procs == 1 {
			hb = 0
		}
		var rec *serve.Reconciler
		fwd := dm.fwd
		eng, err := netrun.New(netrun.Config{
			Proc:           p,
			Addrs:          addrs,
			Listener:       peerLns[p],
			Handlers:       handlers,
			Owner:          nodeOwner,
			Seed:           seed + 1,
			Groups:         groups,
			Group:          group,
			Tick:           c.tick,
			Observer:       observer,
			HeartbeatEvery: hb,
			SuspectAfter:   d.dur("suspect-after"),
			DownAfter:      d.dur("down-after"),
			// dpqd: peer-state and rejoin callbacks drive the reconciler and
			// the transports' dedup state.
			OnPeerState: func(q int, state netrun.PeerState) {
				if rec == nil {
					return
				}
				switch state {
				case netrun.PeerDown:
					rec.PeerDown(q)
				case netrun.PeerUp:
					if fwd != nil {
						fwd.SetPeerDown(q, false)
					}
				}
			},
			OnPeerRejoin: func(q int) {
				for i, t := range transports {
					if nodeOwner(sim.NodeID(i)) != p {
						continue
					}
					for v := range transports {
						if nodeOwner(sim.NodeID(v)) == q {
							t.ResetPeer(sim.NodeID(v))
						}
					}
				}
				if rec != nil {
					go rec.PeerRejoined(q)
				}
			},
			Logf: logf(p),
		})
		if err != nil {
			return nil, err
		}
		dm.eng = eng

		// dpqd: element ids carry (proc+1) in the high bits; the counter is
		// seeded past MaxRecoveredID below.
		var idCtr atomic.Uint64
		nextID := func() prio.ElemID { return prio.ElemID(uint64(p+1)<<40 | idCtr.Add(1)) }

		var degraded func() bool
		if spec.procs > 1 && hb > 0 {
			degraded = eng.AnyPeerDown
		}
		deferRecovery := spec.procs > 1 && spec.walDir != "" && dm.fwd != nil
		walDir := ""
		if spec.walDir != "" {
			walDir = fmt.Sprintf("%s/d%d", spec.walDir, p)
		}
		srv, err := serve.New(serve.Config{
			Heap:          servedHeap,
			Hosts:         localHosts,
			NextID:        nextID,
			WALDir:        walDir,
			LeaseTTL:      d.dur("lease-ttl"),
			MaxInFlight:   d.int("max-inflight"),
			MaxConnQueue:  d.int("max-conn-queue"),
			SnapshotEvery: d.dur("snapshot-every"),
			Proc:          p,
			Owner:         ownerOf,
			PeerAck:       peerAck,
			Degraded:      degraded,
			DeferRecovery: deferRecovery,
			Logf:          logf(p),
		})
		if err != nil {
			eng.Close()
			return nil, err
		}
		dm.srv = srv
		if dm.th != nil {
			dm.th.attach()
		}
		// dpqd: the Reconciler exists when the heap supports resets and acks
		// replicate.
		if rh, ok := servedHeap.(serve.ResettableHeap); ok && dm.fwd != nil {
			rec = &serve.Reconciler{
				Server:      srv,
				Heap:        rh,
				Fwd:         dm.fwd,
				AnchorLocal: anchorProc == p,
				Peers:       clientAddrs,
				Proc:        p,
				SettleDelay: d.dur("reconcile-settle"),
				Logf:        logf(p),
			}
			dm.fwd.OnParkFlush = func(owner int, id prio.ElemID, err error) { srv.SettleParked(id, err) }
			dm.rec = rec
		}
		if maxID := uint64(srv.MaxRecoveredID()); maxID>>40 == uint64(p+1) {
			idCtr.Store(maxID & (1<<40 - 1))
		}
	}
	// dpqd: start the engine, run RecoverAsRestarter on its own goroutine
	// and serve clients (the recovery's lease scan asks the peers' serving
	// layers). The cluster is ready once every recovery returned.
	var wg sync.WaitGroup
	for _, dm := range c.daemons {
		dm.eng.Start()
		if dm.rec != nil {
			wg.Add(1)
			go func(r *serve.Reconciler) {
				defer wg.Done()
				r.RecoverAsRestarter()
			}(dm.rec)
		}
		go dm.srv.Serve(dm.ln)
	}
	wg.Wait()
	return c, nil
}

// ownerOfID is dpqd's element-owner function: the process bits of the id.
func ownerOfID(id prio.ElemID) int { return int(uint64(id)>>40) - 1 }

// logf routes a daemon's diagnostics to stderr, as dpqd does; the
// benchmark's own verdicts go to stdout.
func logf(p int) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dpqd[%d]: "+format+"\n", append([]any{p}, args...)...)
	}
}

// clientAddr is daemon p's client listen address.
func (c *cluster) clientAddr(p int) string { return c.daemons[p].ln.Addr().String() }

// stats sums the serving counters of every daemon.
func (c *cluster) stats() serve.Stats {
	var out serve.Stats
	for _, dm := range c.daemons {
		st := dm.srv.Stats()
		out.Served += st.Served
		out.Rejected += st.Rejected
		out.OverloadRejects += st.OverloadRejects
		out.Unavailable += st.Unavailable
		out.Acked += st.Acked
		out.RemoteAcks += st.RemoteAcks
		out.Pending += st.Pending
		out.WAL.Records += st.WAL.Records
		out.WAL.Syncs += st.WAL.Syncs
	}
	return out
}

// engineMetrics returns each daemon's netrun cost accounting.
func (c *cluster) engineMetrics() []sim.Metrics {
	out := make([]sim.Metrics, len(c.daemons))
	for i, dm := range c.daemons {
		out[i] = dm.eng.Metrics()
	}
	return out
}

// traceOps is the number of operations every daemon's heap trace holds.
func (c *cluster) traceOps() int {
	n := 0
	for _, dm := range c.daemons {
		n += dm.heap.Trace().Len()
	}
	return n
}

// close shuts every daemon down in dpqd's signal order: stop accepting,
// drain, wait for quiescence, Shutdown, close the forwarder and engine.
func (c *cluster) close() error {
	var firstErr error
	for _, dm := range c.daemons {
		dm.ln.Close()
		dm.srv.Drain()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, dm := range c.daemons {
		tr := dm.heap.Trace()
		for tr.DoneCount() != tr.Len() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, dm := range c.daemons {
		if _, err := dm.srv.Shutdown(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("daemon %d shutdown: %w", dm.proc, err)
		}
		if dm.fwd != nil {
			dm.fwd.Close()
		}
	}
	for _, dm := range c.daemons {
		dm.eng.Close()
	}
	return firstErr
}

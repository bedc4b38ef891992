package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/clientproto"
	"dpq/internal/hashutil"
	"dpq/internal/prio"
	"dpq/internal/serve"
	"dpq/internal/sim"
)

// netWorkload is a client load against an in-process dpqd cluster.
type netWorkload struct {
	protocol string // per-layer metric prefix: skeap or relax
	cluster  clusterSpec
	window   int     // closed loop: outstanding heap ops per connection
	prefill  int     // elements inserted during set-up, across all connections
	cycle    int     // burst: inserts per connection per fill/drain cycle (0: no phases)
	rate     float64 // nominal heap ops/s, sizing each cluster's fixed operation count
	clusters int     // measured clusters per run
}

// clustersPerRun is how many clusters a run of skeap2-burst or
// relax1-wide sets up, loads and checks in turn.
const clustersPerRun = 5

// warmUpLoad caps the load of the unmeasured warm-up cluster: long enough
// for the process's first heap growth, WAL files and connection buffers.
const warmUpLoad = 2 * time.Second

// loadConn is one client connection with the bookkeeping the output checks
// and metrics need. Slices are appended by the connection's reader
// goroutine only and read after conn.wait returns.
type loadConn struct {
	*conn
	idx, daemon int
	relaxed     bool
	window      chan struct{}
	rng         *hashutil.Rand
	prios       uint64
	inserts     int // insert requests generated (payload tag sequence)

	measuring    atomic.Bool // latencies and counts feed the end-to-end metrics
	bottomIsFail atomic.Bool // strict phase in which the queue is known non-empty

	// Measured requests, stamped with the time they were due.
	ins, del, ack        []sample
	ackLocal, ackRemote  []time.Duration
	inserted, consumed   []uint64
	values               []seqVal
	bottoms, emptyMisses int64
	failures             []string
	attempted            atomic.Int64
	spans                []clientSpan // traced runs
}

// sample is one measured request: when it was due, when its answer was
// read, and the latency between them.
type sample struct {
	due, done time.Time
	lat       time.Duration
}

type seqVal struct {
	reqID uint64
	v     int64
}

// clientSpan is a heap operation's client-side timestamps (traced runs).
type clientSpan struct {
	insert    bool
	ack       bool
	tag       string
	reqID     uint64
	measuring bool
	sent      time.Time
	flushed   time.Time
	read      time.Time
}

func (lc *loadConn) fail(format string, args ...any) {
	lc.failures = append(lc.failures, fmt.Sprintf("conn %d: ", lc.idx)+fmt.Sprintf(format, args...))
}

func (lc *loadConn) issue(r *request) {
	lc.attempted.Add(1)
	if r.due.IsZero() {
		r.due = time.Now()
	}
	lc.send(r)
}

func (lc *loadConn) insertReq() *request {
	lc.inserts++
	return &request{op: clientproto.OpInsert, prio: lc.rng.Uint64n(lc.prios),
		payload: fmt.Sprintf("c%d.%d", lc.idx, lc.inserts)}
}

func deleteReq() *request { return &request{op: clientproto.OpDelete} }

// onResp checks and records one response. A delivered element is acked at
// once on the same connection.
func (lc *loadConn) onResp(r *request, resp *clientproto.Response, at time.Time) {
	m := lc.measuring.Load()
	lat := at.Sub(r.due)
	if r.windowed {
		<-lc.window
	}
	if lc.conn.traced && resp.Status != clientproto.StatusError {
		lc.spans = append(lc.spans, clientSpan{insert: r.op == clientproto.OpInsert, ack: r.op == clientproto.OpAck,
			tag: r.payload, reqID: r.reqID, measuring: m, sent: r.sent, flushed: r.flushed, read: at})
	}
	switch r.op {
	case clientproto.OpInsert:
		if resp.Status != clientproto.StatusInserted {
			lc.fail("insert %d refused: status %d (%s)", r.reqID, resp.Status, resp.Code)
			return
		}
		lc.inserted = append(lc.inserted, resp.ID)
		lc.values = append(lc.values, seqVal{r.reqID, resp.Value})
		if m {
			lc.ins = append(lc.ins, sample{r.due, at, lat})
		}
	case clientproto.OpDelete:
		switch resp.Status {
		case clientproto.StatusElem:
			lc.consumed = append(lc.consumed, resp.ID)
			lc.values = append(lc.values, seqVal{r.reqID, resp.Value})
			if resp.Deliveries != 1 {
				lc.fail("element %d delivered %d times without a nack or expiry", resp.ID, resp.Deliveries)
			}
			if m {
				lc.del = append(lc.del, sample{r.due, at, lat})
			}
			lc.issue(&request{op: clientproto.OpAck, id: resp.ID, due: at})
		case clientproto.StatusBottom:
			lc.bottoms++
			lc.values = append(lc.values, seqVal{r.reqID, resp.Value})
			switch {
			case lc.relaxed:
				if m {
					lc.emptyMisses++
				}
			case lc.bottomIsFail.Load():
				lc.fail("delete %d returned ⊥ while the queue was non-empty", r.reqID)
			}
		default:
			lc.fail("delete %d refused: status %d (%s)", r.reqID, resp.Status, resp.Code)
		}
	case clientproto.OpAck:
		if resp.Status != clientproto.StatusAcked {
			lc.fail("ack of %d refused: status %d (%s)", r.id, resp.Status, resp.Code)
			return
		}
		if m {
			lc.ack = append(lc.ack, sample{r.due, at, lat})
			if ownerOfID(prio.ElemID(r.id)) == lc.daemon {
				lc.ackLocal = append(lc.ackLocal, lat)
			} else {
				lc.ackRemote = append(lc.ackRemote, lat)
			}
		}
	}
}

// setWindow sets how many requests closedLoop keeps outstanding; call it
// only when none are.
func (lc *loadConn) setWindow(n int) { lc.window = make(chan struct{}, n) }

// closedLoop issues up to n requests from next with at most the window
// outstanding, stopping early at the deadline (zero: none), and waits for
// every answer. It returns the number issued.
func (lc *loadConn) closedLoop(n int, deadline time.Time, next func() *request) int {
	i := 0
	for ; i < n; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		lc.window <- struct{}{}
		r := next()
		r.windowed = true
		lc.issue(r)
	}
	return i
}

// waitAll waits for every connection's answers; a stall is a failure.
func waitAll(lcs []*loadConn) {
	for _, lc := range lcs {
		if !lc.wait(stallLimit) {
			lc.failures = append(lc.failures, fmt.Sprintf("conn %d: no answer within %v", lc.idx, stallLimit))
		}
	}
}

// stallLimit bounds how long a phase may wait for outstanding answers.
const stallLimit = 60 * time.Second

// parallel runs f once per connection concurrently and waits for all.
func parallel(lcs []*loadConn, f func(lc *loadConn)) {
	var wg sync.WaitGroup
	for _, lc := range lcs {
		wg.Add(1)
		go func(lc *loadConn) {
			defer wg.Done()
			f(lc)
		}(lc)
	}
	wg.Wait()
}

// windowSnap is the cluster-side view at one instant of the measured load.
type windowSnap struct {
	rt     runtimeSnap
	st     serve.Stats
	eng    []sim.Metrics
	proto  []int64 // busy ns per daemon
	outer  []int64
	act    [2]int64 // activate ns, activations (all daemons)
	handle [2]int64
	remote int64
}

func snapWindow(c *cluster) windowSnap {
	w := windowSnap{st: c.stats(), eng: c.engineMetrics()}
	for _, dm := range c.daemons {
		if dm.proto != nil {
			w.proto = append(w.proto, dm.proto.busyNs())
			w.outer = append(w.outer, dm.outer.busyNs())
			w.act[0] += dm.proto.activateNs.Load()
			w.act[1] += dm.proto.activations.Load()
			w.handle[0] += dm.proto.handleNs.Load()
			w.handle[1] += dm.proto.handled.Load()
			w.remote += dm.remoteMsgs.Load()
		}
	}
	w.rt = takeRuntime()
	return w
}

// runNet runs one network workload on w.clusters clusters in turn,
// after an unmeasured warm-up cluster. Each is set up (timed), loaded for
// its share of the time, drained, checked and torn down, so every run sees
// several independent clusters (their daemons' tick phases, connection
// pinning and memory start afresh). The end-to-end figures are medians
// over the slices of all clusters; the per-layer ones are medians over
// clusters.
func runNet(w netWorkload, e *env, res *result) error {
	var setupTimes, peaks []float64
	var ins, del, ack []sample
	var insSlices, delSlices []slice
	var layers []map[string]float64
	var spans []span
	share := e.seconds / time.Duration(w.clusters)
	// Cluster -1 warms the process up (heap growth, first WAL files,
	// connection buffers): it is set up, loaded, drained and checked like
	// the others, but its load is not measured.
	for s := -1; s < w.clusters; s++ {
		spec := w.cluster
		if spec.walDir != "" {
			spec.walDir = fmt.Sprintf("%s/wal-%d", e.workDir, s+1)
		}
		t0 := time.Now()
		c, lcs, err := setupNet(w, spec, e)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())

		heapBefore := heapInUseMB()
		a := snapWindow(c)
		// Set-up and drain run at dpqload's window, the measured load at
		// the workload's own.
		for _, lc := range lcs {
			lc.setWindow(w.window)
			lc.measuring.Store(true)
		}
		length := share
		if s < 0 {
			length = min(share, warmUpLoad)
		}
		m := measureNet(w, length, lcs)
		for _, lc := range lcs {
			lc.measuring.Store(false)
			lc.setWindow(closedWindow)
		}
		b := snapWindow(c)
		if w.cycle == 0 {
			// The steady loop ends with the queue at its working depth.
			m.peakMB = heapInUseMB()
		}

		drainNet(w, lcs, res)
		if s < 0 {
			checkNet(w, lcs, res)
			if err := teardown(c, lcs, res); err != nil {
				return err
			}
			continue
		}
		peaks = append(peaks, m.peakMB)
		L := map[string]float64{
			"retained_mb":         heapInUseMB() - heapBefore,
			"serve.pending_after": float64(c.stats().Pending),
			"semantics.trace_ops": float64(c.traceOps()),
		}
		netMetrics(w, e, c, lcs, a, b, m, L)
		if e.traced {
			spans = append(spans, traceNet(w, s, c, lcs, res, L)...)
		}
		layers = append(layers, L)
		for _, lc := range lcs {
			ins = append(ins, lc.ins...)
			del = append(del, lc.del...)
			ack = append(ack, lc.ack...)
		}
		insSlices = append(insSlices, m.insSlices...)
		delSlices = append(delSlices, m.delSlices...)
		checkNet(w, lcs, res)
		if err := teardown(c, lcs, res); err != nil {
			return err
		}
	}
	res.e2e["setup_s"] = median(setupTimes)
	res.e2e["heap_peak_mb"] = median(peaks)
	insRate, insP50, insP99 := sliced(ins, insSlices)
	ackRate, ackP50, ackP99 := sliced(ack, delSlices)
	_, delP50, delP99 := sliced(del, delSlices)
	res.e2e["insert_ops_s"] = median(insRate)
	res.e2e["delete_ops_s"] = median(ackRate)
	res.e2e["insert_p50_ms"] = median(insP50)
	res.e2e["insert_p99_ms"] = median(insP99)
	res.e2e["delete_p50_ms"] = median(delP50)
	res.e2e["delete_p99_ms"] = median(delP99)
	res.layer["ack_p50_ms"] = median(ackP50)
	res.layer["ack_p99_ms"] = median(ackP99)
	for k := range layers[0] {
		var vs []float64
		for _, L := range layers {
			vs = append(vs, L[k])
		}
		res.layer[k] = median(vs)
	}
	res.samples["insert"] = len(ins)
	res.samples["delete"] = len(del)
	res.samples["ack"] = len(ack)
	res.info("%d clusters, set-up %.3f s each (median); %d slices; per slice, median (min–max): insert ops/s %s, delete ops/s %s, insert p99 %s ms, delete p99 %s ms",
		w.clusters, res.e2e["setup_s"], len(insSlices), rangeOf(insRate), rangeOf(ackRate), rangeOf(insP99), rangeOf(delP99))
	if e.traced {
		if err := writeSpans(e, spans); err != nil {
			res.fail("trace: %v", err)
		}
	}
	return nil
}

// setupNet builds the cluster, connects the clients, proves the cluster
// serves with a ⊥ probe per connection and prefills the queue.
func setupNet(w netWorkload, spec clusterSpec, e *env) (*cluster, []*loadConn, error) {
	spec.traced = e.traced
	c, err := newCluster(spec, e.dpqd)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	conns := spec.procs
	if spec.relax {
		conns = relaxConns
	}
	var lcs []*loadConn
	for i := 0; i < conns; i++ {
		lc := &loadConn{idx: i, daemon: i % spec.procs, relaxed: spec.relax,
			window: make(chan struct{}, closedWindow),
			rng:    hashutil.NewRand(hashutil.ForkSeedAt(e.seed, uint64(i))), prios: uint64(e.dpqd.int("prios"))}
		cn, err := dial(c.clientAddr(lc.daemon), e.traced, lc.onResp)
		if err != nil {
			c.close()
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		lc.conn = cn
		lcs = append(lcs, lc)
	}
	// The probe: an empty cluster answers ⊥ only after a full protocol pass.
	parallel(lcs, func(lc *loadConn) { lc.closedLoop(1, time.Time{}, deleteReq) })
	waitAll(lcs)
	per := w.prefill / len(lcs)
	parallel(lcs, func(lc *loadConn) { lc.closedLoop(per, time.Time{}, lc.insertReq) })
	waitAll(lcs)
	return c, lcs, nil
}

// measured is the client-side outcome of the measured window.
type measured struct {
	wall time.Duration // whole window
	// The window's slices: burst cycles (insert and delete phases apart),
	// otherwise equal parts of the window. Each end-to-end figure is the
	// median of its per-slice values.
	insSlices, delSlices []slice
	heapOps              int64
	// peakMB is the largest live heap sampled (burst: at the end of each
	// fill phase); sampled keeps each sample's forced collections out of
	// the runtime.* window.
	peakMB  float64
	sampled [][2]runtimeSnap
}

type slice struct{ from, to time.Time }

// timeSlices is the number of slices of one cluster's continuous load.
// The slices are short (0.25–0.4 s at --seconds 20), so a
// stall of the host's disk or CPU that covers a few of them does not move
// the median: with 2 slices per cluster the p99 spread of
// skeap2-wal-steady run to run was 0.2–0.5, with 16 about half that.
const timeSlices = 16

func measureNet(w netWorkload, length time.Duration, lcs []*loadConn) measured {
	var m measured
	start := time.Now()
	switch {
	case w.cycle > 0:
		// Fill, then drain with acks. The cycle count is fixed (sized by the
		// nominal rate to take about the window), so the state a cluster
		// accumulates does not vary with its speed.
		cycles := max(1, int(w.rate*length.Seconds()/float64(2*w.cycle*len(lcs))))
		for len(m.insSlices) < cycles {
			t0 := time.Now()
			parallel(lcs, func(lc *loadConn) { lc.closedLoop(w.cycle, time.Time{}, lc.insertReq) })
			waitAll(lcs)
			t1 := time.Now()
			// The queue is at its fullest: sample the live heap before
			// the drain, outside both phases' slices.
			r0 := takeRuntime()
			m.peakMB = max(m.peakMB, heapInUseMB())
			r1 := takeRuntime()
			m.sampled = append(m.sampled, [2]runtimeSnap{r0, r1})
			setBottomIsFail(lcs, true)
			t2 := time.Now()
			parallel(lcs, func(lc *loadConn) { lc.closedLoop(w.cycle, time.Time{}, deleteReq) })
			waitAll(lcs)
			setBottomIsFail(lcs, false)
			m.insSlices = append(m.insSlices, slice{t0, t1})
			m.delSlices = append(m.delSlices, slice{t2, time.Now()})
		}
	default:
		// Closed-loop alternating inserts and deletes over the prefilled
		// queue: writes beside reads at a steady depth. The operation count
		// is fixed (sized by the nominal rate to take about the window), so
		// the state a cluster accumulates does not vary with its speed.
		// On a strict heap whose prefill exceeds every connection's
		// outstanding window, the queue is never empty, so any ⊥ is a
		// failure.
		n := int(w.rate*length.Seconds()/float64(len(lcs))) &^ 1
		setBottomIsFail(lcs, !w.cluster.relax && w.prefill > w.window*len(lcs))
		parallel(lcs, func(lc *loadConn) {
			k := 0
			lc.closedLoop(n, time.Time{}, func() *request {
				k++
				if k%2 == 1 {
					return lc.insertReq()
				}
				return deleteReq()
			})
		})
		waitAll(lcs)
		setBottomIsFail(lcs, false)
	}
	m.wall = time.Since(start)
	if w.cycle == 0 {
		part := m.wall / timeSlices
		for i := 0; i < timeSlices; i++ {
			sl := slice{start.Add(time.Duration(i) * part), start.Add(time.Duration(i+1) * part)}
			m.insSlices = append(m.insSlices, sl)
			m.delSlices = append(m.delSlices, sl)
		}
	}
	for _, lc := range lcs {
		m.heapOps += int64(len(lc.ins) + len(lc.del))
	}
	return m
}

// setBottomIsFail marks whether a ⊥ answer is a failure: the queue is
// known to be non-empty.
func setBottomIsFail(lcs []*loadConn, on bool) {
	for _, lc := range lcs {
		lc.bottomIsFail.Store(on)
	}
}

// drainNet empties the queue after the measured window, acking every
// delivery, then (strict protocols) proves emptiness with a final ⊥ per
// connection.
func drainNet(w netWorkload, lcs []*loadConn, res *result) {
	deadline := time.Now().Add(stallLimit)
	if w.cluster.relax {
		// Relaxed deletes may miss elements buffered elsewhere: drain until
		// every acknowledged insert was delivered.
		for time.Now().Before(deadline) {
			ins, cons := 0, 0
			for _, lc := range lcs {
				ins += len(lc.inserted)
				cons += len(lc.consumed)
			}
			if cons >= ins {
				return
			}
			parallel(lcs, func(lc *loadConn) { lc.closedLoop(closedWindow, time.Time{}, deleteReq) })
			waitAll(lcs)
		}
		res.fail("relaxed drain did not deliver every element within %v", stallLimit)
		return
	}
	parallel(lcs, func(lc *loadConn) {
		for time.Now().Before(deadline) {
			before := lc.bottoms
			lc.closedLoop(closedWindow, time.Time{}, deleteReq)
			if !lc.wait(stallLimit) || lc.bottoms > before {
				return
			}
		}
	})
	waitAll(lcs)
	before := make([]int64, len(lcs))
	for i, lc := range lcs {
		before[i] = lc.bottoms
	}
	parallel(lcs, func(lc *loadConn) { lc.closedLoop(1, time.Time{}, deleteReq) })
	waitAll(lcs)
	for i, lc := range lcs {
		if lc.bottoms != before[i]+1 {
			res.fail("conn %d: the final delete on a drained cluster did not return ⊥", lc.idx)
		}
	}
}

// checkNet runs the output checks: every acknowledged insert consumed
// exactly once and nothing else delivered; on strict protocols each
// connection's serialization values increase in issue order.
func checkNet(w netWorkload, lcs []*loadConn, res *result) {
	seen := map[uint64]int{}
	for _, lc := range lcs {
		res.attempted += lc.attempted.Load()
		for _, f := range lc.failures {
			res.fail("%s", f)
		}
		for _, id := range lc.inserted {
			seen[id] += 0
		}
	}
	for _, lc := range lcs {
		for _, id := range lc.consumed {
			n, ok := seen[id]
			switch {
			case !ok:
				res.fail("element %d delivered but never inserted", id)
			case n >= 1:
				res.fail("element %d consumed twice", id)
			}
			seen[id] = n + 1
		}
	}
	for id, n := range seen {
		if n == 0 {
			res.fail("acknowledged insert %d never consumed", id)
		}
	}
	if w.cluster.relax {
		return
	}
	for _, lc := range lcs {
		vs := append([]seqVal(nil), lc.values...)
		sort.Slice(vs, func(i, j int) bool { return vs[i].reqID < vs[j].reqID })
		for i := 1; i < len(vs); i++ {
			if vs[i].v <= vs[i-1].v {
				res.fail("conn %d: serialization value %d of request %d does not follow %d of request %d",
					lc.idx, vs[i].v, vs[i].reqID, vs[i-1].v, vs[i-1].reqID)
			}
		}
	}
}

func teardown(c *cluster, lcs []*loadConn, res *result) error {
	for _, lc := range lcs {
		if err := lc.close(); err != nil {
			res.fail("conn %d: %v", lc.idx, err)
		}
	}
	err := c.close()
	if c.spec.walDir != "" {
		os.RemoveAll(c.spec.walDir)
	}
	return err
}

// netMetrics derives the end-to-end and the cheap per-layer metrics of the
// measured window.
func netMetrics(w netWorkload, e *env, c *cluster, lcs []*loadConn, a, b windowSnap, m measured, L map[string]float64) {
	var ackLocal, ackRemote []time.Duration
	var misses int64
	for _, lc := range lcs {
		ackLocal = append(ackLocal, lc.ackLocal...)
		ackRemote = append(ackRemote, lc.ackRemote...)
		misses += lc.emptyMisses
	}
	L["relax.empty_misses"] = float64(misses)

	wall := b.rt.at.Sub(a.rt.at)
	ops := float64(m.heapOps)
	L["serve.overload_rejects"] = float64(b.st.OverloadRejects - a.st.OverloadRejects)
	L["serve.unavailable"] = float64(b.st.Unavailable - a.st.Unavailable)
	syncs := float64(b.st.WAL.Syncs - a.st.WAL.Syncs)
	L["serve.wal.records_per_sync"] = ratio(float64(b.st.WAL.Records-a.st.WAL.Records), syncs)
	L["serve.wal.syncs_per_s"] = syncs / wall.Seconds()
	L["serve.remote_ack_frac"] = ratio(float64(len(ackRemote)), float64(len(ackLocal)+len(ackRemote)))
	L["serve.ack_local_p50_ms"] = ms(pct(ackLocal, 0.50))
	L["serve.ack_remote_p50_ms"] = ms(pct(ackRemote, 0.50))

	p := w.protocol
	var rounds, msgs, bits float64
	tickRatio, congestion := 0.0, 0
	for i := range b.eng {
		r := float64(b.eng[i].Rounds - a.eng[i].Rounds)
		rounds += r
		msgs += float64(b.eng[i].Messages - a.eng[i].Messages)
		bits += float64(b.eng[i].TotalBits - a.eng[i].TotalBits)
		tr := r / (float64(wall) / float64(c.tick))
		if i == 0 || tr < tickRatio {
			tickRatio = tr
		}
		if b.eng[i].Congestion > congestion {
			congestion = b.eng[i].Congestion
		}
	}
	procs := float64(len(b.eng))
	L[p+".ticks_per_op"] = ratio(rounds/procs, ops)
	L[p+".msgs_per_op"] = ratio(msgs, ops)
	L[p+".bits_per_op"] = ratio(bits, ops)
	L[p+".congestion"] = float64(congestion)
	L["netrun.tick_ratio"] = tickRatio
	if e.traced {
		var busy, outer float64
		for i := range b.proto {
			busy += float64(b.proto[i] - a.proto[i])
			outer += float64(b.outer[i] - a.outer[i])
		}
		L[p+".handler_busy_frac"] = busy / (float64(wall) * procs)
		L["sim.transport_busy_frac"] = (outer - busy) / (float64(wall) * procs)
		L[p+".activate_ns"] = ratio(float64(b.act[0]-a.act[0]), float64(b.act[1]-a.act[1]))
		L[p+".handle_ns"] = ratio(float64(b.handle[0]-a.handle[0]), float64(b.handle[1]-a.handle[1]))
		L["netrun.remote_msgs_per_op"] = ratio(float64(b.remote-a.remote), ops)
	}
	from := a.rt
	for _, sm := range m.sampled {
		from = from.skip(sm[0], sm[1])
	}
	runtimeMetrics(L, from, b.rt, m.heapOps)
}

// relaxConns is the client count of the single-daemon relax workload: the
// machine's two cores, one connection each.
const relaxConns = 2

// sliced returns, per slice, the rate of the answers read in it, and the
// p50 and p99 latency in ms of the requests due in it.
func sliced(ss []sample, slices []slice) (rate, p50, p99 []float64) {
	in := func(t time.Time, sl slice) bool { return !t.Before(sl.from) && t.Before(sl.to) }
	for _, sl := range slices {
		var lat []time.Duration
		done := 0
		for _, s := range ss {
			if in(s.due, sl) {
				lat = append(lat, s.lat)
			}
			if in(s.done, sl) {
				done++
			}
		}
		rate = append(rate, float64(done)/sl.to.Sub(sl.from).Seconds())
		p50 = append(p50, ms(pct(lat, 0.50)))
		p99 = append(p99, ms(pct(lat, 0.99)))
	}
	return rate, p50, p99
}

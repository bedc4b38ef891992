package main

import (
	"runtime"
	"sync"
	"time"

	"dpq/internal/hashutil"
	"dpq/internal/mathx"
	"dpq/internal/prio"
	"dpq/internal/seap"
	"dpq/internal/semantics"
	"dpq/internal/sim"
)

// The simulator workload's shape: Seap batches of one operation per host on
// sim.SyncEngine. A pass is one fresh heap driven through seapBatches
// batches.
const (
	seapHosts   = 512
	seapBatches = 2
	seapInsFrac = 0.6 // share of a batch's per-host operations that insert
)

// seapPrioBound is the priority range [1, 16·n²] of the inserts.
const seapPrioBound = uint64(seapHosts) * seapHosts * 16

type simOp struct {
	host   int
	insert bool
	prio   uint64
}

// extraSetups is how many heap and engine constructions a run times
// besides its passes' own.
const extraSetups = 8

// simPass is the outcome of one pass.
type simPass struct {
	setup      time.Duration // heap and engine construction
	wall       time.Duration // batches injected and run to completion
	ins, del   []time.Duration
	rounds     []int // per batch
	messages   []int64
	bits       int64
	congestion int
	ops        int
	traceOps   int
	allocs     uint64
	virtual    int
	clock      *handlerClock
	verdict    *semantics.Report
	liveMB     float64 // live heap at the end of the pass, heap and engine still reachable
}

// batchesFrom generates the pass's operations from the workload seed.
func batchesFrom(seed uint64) [][]simOp {
	rnd := hashutil.NewRand(seed)
	out := make([][]simOp, seapBatches)
	for b := range out {
		for h := 0; h < seapHosts; h++ {
			op := simOp{host: h, insert: rnd.Float64() < seapInsFrac}
			if op.insert {
				op.prio = rnd.Uint64n(seapPrioBound) + 1
			}
			out[b] = append(out[b], op)
		}
	}
	return out
}

// pass builds a fresh Seap heap and engine with sim.Build and drives every
// batch to completion. workers > 1 steps the engine on a worker pool;
// timed wraps the protocol handlers in timing counters.
func pass(seed uint64, batches [][]simOp, workers int, timed bool) simPass {
	var p simPass
	t0 := time.Now()
	h := seap.New(seap.Config{N: seapHosts, PrioBound: seapPrioBound, Seed: seed})
	handlers := h.Handlers()
	if timed {
		p.clock = &handlerClock{}
		handlers = timeHandlers(handlers, p.clock)
	}
	groups, group := h.Overlay().Group()
	eng := sim.Build(sim.Spec{Kind: sim.KindSync, Handlers: handlers, Seed: seed + 1,
		Groups: groups, Group: group, Workers: workers}).(*sim.SyncEngine)
	p.virtual = h.Overlay().NumVirtual()
	p.setup = time.Since(t0)

	// Completions may arrive on the worker pool's goroutines.
	var mu sync.Mutex
	injected := map[*semantics.Op]time.Time{}
	h.Trace().SetOnComplete(func(op *semantics.Op) {
		mu.Lock()
		defer mu.Unlock()
		lat := time.Since(injected[op])
		if op.Kind == semantics.Insert {
			p.ins = append(p.ins, lat)
		} else {
			p.del = append(p.del, lat)
		}
	})
	maxRounds := 200000 * (mathx.Log2Ceil(seapHosts) + 3)
	id := prio.ElemID(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, batch := range batches {
		r0, m0 := eng.Metrics().Rounds, eng.Metrics().Messages
		at := time.Now()
		for _, op := range batch {
			if op.insert {
				id++
				o := h.InjectInsert(op.host, id, op.prio, "")
				mu.Lock()
				injected[o] = at
				mu.Unlock()
			} else {
				o := h.InjectDelete(op.host)
				mu.Lock()
				injected[o] = at
				mu.Unlock()
			}
		}
		if !eng.RunUntil(h.Done, maxRounds) {
			break
		}
		p.rounds = append(p.rounds, eng.Metrics().Rounds-r0)
		p.messages = append(p.messages, eng.Metrics().Messages-m0)
		p.ops += len(batch)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.allocs = ms1.Mallocs - ms0.Mallocs
	m := eng.Metrics()
	p.bits = m.TotalBits
	p.congestion = m.Congestion
	p.traceOps = h.Trace().Len()
	p.verdict = semantics.CheckSerializable(h.Trace(), semantics.ByID)
	p.liveMB = heapInUseMB()
	runtime.KeepAlive(eng)
	return p
}

func (p simPass) totalRounds() int {
	n := 0
	for _, r := range p.rounds {
		n += r
	}
	return n
}

func (p simPass) totalMessages() int64 {
	var n int64
	for _, m := range p.messages {
		n += m
	}
	return n
}

// sameCosts reports whether two passes took identical rounds and messages
// batch by batch.
func sameCosts(a, b simPass) bool {
	if len(a.rounds) != len(b.rounds) {
		return false
	}
	for i := range a.rounds {
		if a.rounds[i] != b.rounds[i] || a.messages[i] != b.messages[i] {
			return false
		}
	}
	return true
}

// runSim runs passes until the time is used up, and at least minPasses.
// Pass i runs batches generated from the workload seed and i, on a fresh
// heap; each pass's trace must pass the semantics checks. A replay of the
// first pass afterwards must reproduce its rounds and messages exactly (the
// determinism check). The end-to-end rates pool every pass; the other
// end-to-end figures are medians over passes.
func runSim(e *env, res *result, timed bool, minPasses int) {
	seed := e.dpqd.uint64("seed")
	passSeed := func(i int) uint64 { return hashutil.ForkSeedAt(e.seed, uint64(i)) }

	// Set-up is short and noisy: besides every pass's own, time extra
	// constructions of the same heap and engine before the load.
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		t0 := time.Now()
		h := seap.New(seap.Config{N: seapHosts, PrioBound: seapPrioBound, Seed: seed})
		groups, group := h.Overlay().Group()
		sim.Build(sim.Spec{Kind: sim.KindSync, Handlers: h.Handlers(), Seed: seed + 1, Groups: groups, Group: group})
		setups = append(setups, time.Since(t0).Seconds())
	}

	heapBefore := heapInUseMB()
	a := takeRuntime()
	var passes []simPass
	deadline := time.Now().Add(e.seconds)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		p := pass(seed, batchesFrom(passSeed(len(passes))), 1, timed)
		passes = append(passes, p)
		res.attempted += int64(p.ops)
		if len(p.rounds) != seapBatches {
			res.fail("sim-seap: pass %d did not drain batch %d", len(passes), len(p.rounds)+1)
		}
		if !p.verdict.Ok() {
			res.fail("sim-seap: pass %d semantics: %s", len(passes), p.verdict.Error())
		}
	}
	b := takeRuntime()
	if replay := pass(seed, batchesFrom(passSeed(0)), 1, false); !sameCosts(passes[0], replay) {
		res.fail("sim-seap: replaying pass 1 took rounds %v messages %v, the first run %v %v",
			replay.rounds, replay.messages, passes[0].rounds, passes[0].messages)
	}
	res.layer["retained_mb"] = heapInUseMB() - heapBefore

	var peak, insP50, insP99, delP50, delP99 []float64
	var ins, del []time.Duration
	var wall time.Duration
	ops, rounds := 0, 0
	var msgs, bits int64
	var allocs uint64
	congestion := 0
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		peak = append(peak, p.liveMB)
		insP50 = append(insP50, ms(pct(p.ins, 0.50)))
		insP99 = append(insP99, ms(pct(p.ins, 0.99)))
		delP50 = append(delP50, ms(pct(p.del, 0.50)))
		delP99 = append(delP99, ms(pct(p.del, 0.99)))
		ins = append(ins, p.ins...)
		del = append(del, p.del...)
		wall += p.wall
		ops += p.ops
		rounds += p.totalRounds()
		msgs += p.totalMessages()
		bits += p.bits
		allocs += p.allocs
		if p.congestion > congestion {
			congestion = p.congestion
		}
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["heap_peak_mb"] = median(peak)
	res.e2e["insert_ops_s"] = float64(len(ins)) / wall.Seconds()
	res.e2e["delete_ops_s"] = float64(len(del)) / wall.Seconds()
	res.e2e["insert_p50_ms"] = median(insP50)
	res.e2e["insert_p99_ms"] = median(insP99)
	res.e2e["delete_p50_ms"] = median(delP50)
	res.e2e["delete_p99_ms"] = median(delP99)
	res.samples["insert"] = len(ins)
	res.samples["delete"] = len(del)
	res.info("%d passes of %d batches × %d hosts; pass 1 took %d rounds and %d messages, reproduced exactly by its replay",
		len(passes), seapBatches, seapHosts, passes[0].totalRounds(), passes[0].totalMessages())

	L := res.layer
	all := append(append([]time.Duration(nil), ins...), del...)
	L["sim_ops_s"] = float64(ops) / wall.Seconds()
	L["seap.done_p50_ms"] = ms(pct(all, 0.50))
	L["seap.done_p99_ms"] = ms(pct(all, 0.99))
	L["seap.ticks_per_op"] = ratio(float64(rounds), float64(ops))
	L["seap.msgs_per_op"] = ratio(float64(msgs), float64(ops))
	L["seap.bits_per_op"] = ratio(float64(bits), float64(ops))
	L["seap.congestion"] = float64(congestion)
	L["sim.rounds_per_batch"] = ratio(float64(rounds), float64(len(passes)*seapBatches))
	L["sim.ns_per_activation"] = ratio(float64(wall), float64(rounds)*float64(passes[0].virtual))
	L["sim.allocs_per_round"] = ratio(float64(allocs), float64(rounds))
	L["semantics.trace_ops"] = float64(passes[len(passes)-1].traceOps)
	if timed {
		var busy, act, acts, handle, handled int64
		for _, p := range passes {
			busy += p.clock.busyNs()
			act += p.clock.activateNs.Load()
			acts += p.clock.activations.Load()
			handle += p.clock.handleNs.Load()
			handled += p.clock.handled.Load()
		}
		L["seap.handler_busy_frac"] = ratio(float64(busy), float64(wall))
		L["sim.engine_frac"] = ratio(float64(wall)-float64(busy), float64(wall))
		L["seap.activate_ns"] = ratio(float64(act), float64(acts))
		L["seap.handle_ns"] = ratio(float64(handle), float64(handled))
	}
	runtimeMetrics(L, a, b, int64(ops))
}

// simSpeedup runs one serial and one two-worker pass on the same batches:
// the worker pool must reproduce the serial costs exactly.
func simSpeedup(e *env, res *result) {
	seed := e.dpqd.uint64("seed")
	batches := batchesFrom(hashutil.ForkSeedAt(e.seed, 0))
	serial := pass(seed, batches, 1, false)
	par := pass(seed, batches, 2, false)
	if !sameCosts(serial, par) {
		res.fail("sim-seap: two-worker pass took rounds %v, serial %v", par.rounds, serial.rounds)
	}
	res.layer["sim.parallel_speedup"] = ratio(float64(serial.wall), float64(par.wall))
	res.info("parallel pass: %v serial, %v with 2 workers", serial.wall.Round(time.Millisecond), par.wall.Round(time.Millisecond))
}

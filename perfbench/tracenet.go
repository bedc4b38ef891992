package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dpq/internal/semantics"
)

// span is one traced interval of a request.
type span struct {
	trace, name string
	start, end  time.Time
}

// traceNet matches every answered heap request to the serve.Heap call it
// caused and the protocol completion that answered it, builds the span
// tree client.request → client.send, serve.admit → <p>.op → serve.respond
// (an ack's only child is serve.ack), checks it and writes it out.
func traceNet(w netWorkload, cl int, c *cluster, lcs []*loadConn, res *result, L map[string]float64) []span {
	// Inserts match by the request tag their payload carries; deletes by
	// per-host issue order, each connection being pinned to one host.
	byTag := map[string]heapCall{}
	delCalls := map[int][]heapCall{}
	hostOf := map[int]int{}
	done := map[*semantics.Op]time.Time{}
	for _, dm := range c.daemons {
		calls, dn := dm.th.snapshot()
		for k, v := range dn {
			done[k] = v
		}
		for _, hc := range calls {
			if hc.insert {
				byTag[hc.tag] = hc
				var conn int
				if _, err := fmt.Sscanf(hc.tag, "c%d.", &conn); err == nil {
					hostOf[conn] = hc.host
				}
			} else {
				delCalls[hc.host] = append(delCalls[hc.host], hc)
			}
		}
	}
	var admit, op, respond []time.Duration
	var spans []span
	matched, bad := 0, 0
	for _, lc := range lcs {
		dels := delCalls[hostOf[lc.idx]]
		cs := append([]clientSpan(nil), lc.spans...)
		sort.Slice(cs, func(i, j int) bool { return cs[i].reqID < cs[j].reqID })
		di := 0
		for _, s := range cs {
			id := fmt.Sprintf("k%d.c%d.r%d", cl, lc.idx, s.reqID)
			if s.ack {
				spans = append(spans, span{id, "client.request", s.sent, s.read}, span{id, "serve.ack", s.flushed, s.read})
				continue
			}
			var hc heapCall
			var ok bool
			if s.insert {
				hc, ok = byTag[s.tag]
			} else if di < len(dels) {
				hc, ok = dels[di], true
				di++
			}
			fin, completed := done[hc.op]
			if !ok || !completed {
				bad++
				res.fail("trace: conn %d request %d has no matching heap call", lc.idx, s.reqID)
				continue
			}
			matched++
			// The stages are consecutive differences of one monotonic clock,
			// so client.send + serve.admit + <p>.op + serve.respond equals
			// the client latency by construction. What can fail is their
			// causal order: the flush is stamped before the bytes are
			// written, the heap call after the server read them, the
			// completion after the call and the read after the server
			// answered, so a negative stage means the heap call was paired
			// with the wrong request.
			stages := []time.Duration{hc.at.Sub(s.flushed), fin.Sub(hc.at), s.read.Sub(fin)}
			if minDur(stages) < 0 {
				bad++
				res.fail("trace: conn %d request %d stages %v out of order (flush, heap call, completion, read)", lc.idx, s.reqID, stages)
			}
			if s.measuring {
				admit = append(admit, stages[0])
				op = append(op, stages[1])
				respond = append(respond, stages[2])
			}
			spans = append(spans,
				span{id, "client.request", s.sent, s.read},
				span{id, "client.send", s.sent, s.flushed},
				span{id, "serve.admit", s.flushed, hc.at},
				span{id, w.protocol + ".op", hc.at, fin},
				span{id, "serve.respond", fin, s.read})
		}
	}
	if ops := c.traceOps(); matched != ops {
		res.fail("trace: %d heap-op spans, but the daemons' heaps served %d operations", matched, ops)
	}
	res.info("trace: cluster %d: %d requests matched to heap calls, %d out of stage order", cl, matched, bad)
	L["serve.admit_p50_us"] = us(pct(admit, 0.50))
	L["serve.admit_p99_us"] = us(pct(admit, 0.99))
	L[w.protocol+".done_p50_ms"] = ms(pct(op, 0.50))
	L[w.protocol+".done_p99_ms"] = ms(pct(op, 0.99))
	L["serve.respond_p50_us"] = us(pct(respond, 0.50))
	L["serve.respond_p99_us"] = us(pct(respond, 0.99))
	var encNs, enc, decNs, dec, bytes int64
	for _, lc := range lcs {
		encNs += lc.encodeNs
		enc += lc.encoded
		decNs += lc.decodeNs
		dec += lc.decoded
		bytes += lc.wbytes.Load() + lc.rbytes.Load()
	}
	L["clientproto.encode_ns"] = ratio(float64(encNs), float64(enc))
	L["clientproto.decode_ns"] = ratio(float64(decNs), float64(dec))
	L["clientproto.bytes_per_op"] = ratio(float64(bytes), float64(matched))
	return spans
}

func minDur(ds []time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// writeSpans writes the spans, kept in memory during the run, as JSON
// lines with microsecond offsets from the first span's start.
func writeSpans(e *env, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	base := spans[0].start
	for _, s := range spans {
		if s.start.Before(base) {
			base = s.start
		}
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		parent := "client.request"
		if s.name == parent {
			parent = ""
		}
		fmt.Fprintf(bw, `{"trace":%q,"span":%q,"parent":%q,"start_us":%.1f,"end_us":%.1f}`+"\n",
			s.trace, s.name, parent, us(s.start.Sub(base)), us(s.end.Sub(base)))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

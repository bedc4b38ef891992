package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/clientproto"
)

// request is one clientproto request and its client-side timestamps.
type request struct {
	op      uint8
	prio    uint64
	payload string
	id      uint64 // ack: the element being settled
	reqID   uint64 // assigned in wire order by the writer
	// windowed: the request holds a closed-loop window slot until answered.
	windowed bool

	due     time.Time // latency start: when the request was issued
	sent    time.Time // handed to the writer
	flushed time.Time // the flush that carried it began (traced runs)
}

// conn is one pipelined clientproto connection: a writer goroutine encodes
// requests in arrival order and flushes whenever its queue runs dry; a
// reader goroutine decodes responses and hands each to onResp.
type conn struct {
	nc     net.Conn
	traced bool
	out    chan *request
	onResp func(r *request, resp *clientproto.Response, at time.Time)

	mu   sync.Mutex
	open map[uint64]*request

	pending sync.WaitGroup // requests sent, response not yet handled
	writer  sync.WaitGroup
	reader  sync.WaitGroup
	readErr error // why the reader stopped early; read after reader exits

	// clientproto costs, traced runs: encode time is the writer's, decode
	// time the reader's; both are read after the goroutines exit.
	encodeNs, encoded int64
	decodeNs, decoded int64
	wbytes, rbytes    atomic.Int64
}

// outQueue bounds the writer's queue: it holds a closed loop's full window
// plus the acks chained onto its deliveries.
const outQueue = 1 << 14

func dial(addr string, traced bool, onResp func(*request, *clientproto.Response, time.Time)) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, traced: traced, out: make(chan *request, outQueue), onResp: onResp, open: map[uint64]*request{}}
	c.writer.Add(1)
	c.reader.Add(1)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// send queues r for the writer; its response reaches onResp.
func (c *conn) send(r *request) {
	c.pending.Add(1)
	r.sent = time.Now()
	c.out <- r
}

// wait blocks until every sent request has been answered and handled, or
// reports false when that takes longer than limit (a stalled cluster).
func (c *conn) wait(limit time.Duration) bool {
	ch := make(chan struct{})
	go func() {
		c.pending.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return true
	case <-time.After(limit):
		return false
	}
}

// close ends the connection and waits for its goroutines; it returns the
// error that stopped the reader early, if any.
func (c *conn) close() error {
	close(c.out)
	c.writer.Wait()
	c.nc.Close()
	c.reader.Wait()
	return c.readErr
}

// counted counts the bytes moved through a connection in one direction.
type counted struct {
	rw net.Conn
	n  *atomic.Int64
}

func (c counted) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c counted) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *conn) writeLoop() {
	defer c.writer.Done()
	bw := bufio.NewWriterSize(counted{c.nc, &c.wbytes}, 64<<10)
	var batch []*request
	var next uint64
	for r := range c.out {
		next++
		r.reqID = next
		c.mu.Lock()
		c.open[r.reqID] = r
		c.mu.Unlock()
		var t0 time.Time
		if c.traced {
			t0 = time.Now()
		}
		if clientproto.WriteRequest(bw, &clientproto.Request{Op: r.op, ReqID: r.reqID, Prio: r.prio, Payload: r.payload, ID: r.id}) != nil {
			return
		}
		if c.traced {
			c.encodeNs += int64(time.Since(t0))
			c.encoded++
			batch = append(batch, r)
		}
		if len(c.out) == 0 {
			// Stamped before the write: the server may read the bytes
			// before Flush returns here.
			if c.traced {
				now := time.Now()
				for _, b := range batch {
					b.flushed = now
				}
				batch = batch[:0]
			}
			if bw.Flush() != nil {
				return
			}
		}
	}
	bw.Flush()
}

func (c *conn) readLoop() {
	defer c.reader.Done()
	br := bufio.NewReader(counted{c.nc, &c.rbytes})
	for {
		// Wait for a whole frame first, so the decode timing excludes the
		// time spent waiting for the server.
		hdr, err := br.Peek(4)
		if err != nil {
			return
		}
		if _, err := br.Peek(4 + int(binary.BigEndian.Uint32(hdr))); err != nil {
			return
		}
		t0 := time.Now()
		resp, err := clientproto.ReadResponse(br)
		at := time.Now()
		if err != nil {
			c.readErr = err
			return
		}
		if c.traced {
			c.decodeNs += int64(at.Sub(t0))
			c.decoded++
		}
		c.mu.Lock()
		r := c.open[resp.ReqID]
		delete(c.open, resp.ReqID)
		c.mu.Unlock()
		if r == nil {
			c.readErr = fmt.Errorf("response for unknown request %d", resp.ReqID)
			return
		}
		c.onResp(r, resp, at)
		c.pending.Done()
	}
}

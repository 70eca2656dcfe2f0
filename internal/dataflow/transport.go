package dataflow

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/mitos-project/mitos/internal/val"
)

// The transport moves batches between instances placed on different
// simulated machines. Each (sender machine, receiver machine) pair owns an
// unbounded egress queue drained by a dedicated sender goroutine, so the
// producer's emit path only serializes the batch and enqueues a frame —
// the network cost (NetDelay + encodedBytes/Bandwidth) is paid by the
// sender goroutine, overlapping with the producer's computation, which is
// the overlap the paper claims for Mitos data transfers.
//
// Ordering: the bag coordination protocol in internal/core requires that
// data and EOB envelopes from one producer instance arrive at one consumer
// input in emission order. Every envelope for a given (producer, consumer)
// pair crosses the same machine pair, producers enqueue from their single
// event-loop goroutine, and each egress queue is drained FIFO by one
// goroutine — so per-(producer, consumer, input) order is preserved.
//
// Remote batches are really serialized: flush encodes elements through the
// val codec into pooled scratch, and the sender goroutine decodes them on
// the far side. The encoded length is what the cost model charges and what
// the bytes_sent/bytes_received counters report — measured, not estimated.

// frame is one serialized remote envelope in flight.
type frame struct {
	sender  *instance
	target  *instance
	kind    envKind
	input   int
	from    int
	tag     Tag
	payload []byte // encoded batch (pooled); nil for EOB frames
	count   int    // number of elements in payload
}

// egress is the unbounded FIFO frame queue of one machine pair. Same
// discipline as mailbox, but carrying frames.
type egress struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	closed bool
}

func newEgress() *egress {
	e := &egress{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// put enqueues a frame; it reports false once the egress is closed.
func (e *egress) put(f frame) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, f)
	e.cond.Signal()
	e.mu.Unlock()
	return true
}

// take dequeues the next frame, blocking until one is available or the
// egress is closed and drained.
func (e *egress) take() (frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.queue) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.queue) == 0 {
		return frame{}, false
	}
	f := e.queue[0]
	e.queue[0] = frame{}
	e.queue = e.queue[1:]
	if len(e.queue) == 0 {
		e.queue = nil
	}
	return f, true
}

// depth returns the current frame backlog. Safe to call from any
// goroutine; the introspection sampler uses it on live jobs.
func (e *egress) depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

func (e *egress) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// transport is the cross-machine egress layer of one job.
type transport struct {
	job   *Job
	pairs [][]*egress // [senderMachine][receiverMachine]; nil on the diagonal
	wg    sync.WaitGroup

	// pending counts frames enqueued but not yet delivered (or dropped).
	// Stop's clean path waits for zero before closing mailboxes, so
	// envelopes still crossing the simulated network are never spuriously
	// dropped on a successful run.
	mu      sync.Mutex
	idle    *sync.Cond
	pending int
}

// newTransport creates the egress queues and starts one sender goroutine
// per off-diagonal machine pair.
func newTransport(j *Job, machines int) *transport {
	t := &transport{job: j, pairs: make([][]*egress, machines)}
	t.idle = sync.NewCond(&t.mu)
	for s := range t.pairs {
		t.pairs[s] = make([]*egress, machines)
		for r := range t.pairs[s] {
			if r == s {
				continue
			}
			eg := newEgress()
			t.pairs[s][r] = eg
			t.wg.Add(1)
			go t.run(eg)
		}
	}
	return t
}

// send enqueues a frame on the sender's egress queue to the target's
// machine and returns immediately. Frames enqueued after close are
// accounted as delivered drops (their payload returns to the pool).
func (t *transport) send(f frame) {
	t.mu.Lock()
	t.pending++
	t.mu.Unlock()
	if !t.pairs[f.sender.machine][f.target.machine].put(f) {
		if f.payload != nil {
			val.PutScratch(f.payload)
		}
		t.done()
	}
}

// done retires one pending frame and wakes quiesce at zero.
func (t *transport) done() {
	t.mu.Lock()
	t.pending--
	if t.pending == 0 {
		t.idle.Broadcast()
	}
	t.mu.Unlock()
}

// quiesce blocks until every enqueued frame has been delivered.
func (t *transport) quiesce() {
	t.mu.Lock()
	for t.pending > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// run is one sender goroutine: it drains its egress queue, paying the
// network cost and delivering into the target mailbox, until the queue is
// closed and empty.
func (t *transport) run(eg *egress) {
	defer t.wg.Done()
	for {
		f, ok := eg.take()
		if !ok {
			return
		}
		t.deliver(f)
		t.done()
	}
}

// deliver pays the modeled network cost for one frame, decodes its
// payload, and puts the envelope into the target's mailbox.
func (t *transport) deliver(f frame) {
	j := t.job
	j.cl.NetSleepBytes(len(f.payload))
	env := envelope{kind: f.kind, input: f.input, from: f.from, tag: f.tag, dest: f.target}
	if f.kind == envData {
		// Decode into a pooled buffer so the consumer's loop can recycle
		// the batch after OnBatch returns, same as local batches.
		batch, err := decodeBatch(j.getBatch(), f.payload, f.count)
		if err != nil {
			j.fail(fmt.Errorf("dataflow: transport %s[%d] -> %s[%d]: %w",
				f.sender.op.Name, f.sender.idx, f.target.op.Name, f.target.idx, err))
			return
		}
		n := int64(len(f.payload))
		val.PutScratch(f.payload)
		env.batch = batch
		j.bytesReceived.Add(n)
		f.target.bytesIn.Add(n)
	}
	f.target.driver.mbox.put(env)
}

// close stops all egress queues; already-enqueued frames are still
// delivered. wait blocks until every sender goroutine has exited.
func (t *transport) close() {
	for _, row := range t.pairs {
		for _, eg := range row {
			if eg != nil {
				eg.close()
			}
		}
	}
}

func (t *transport) wait() { t.wg.Wait() }

// encodeBatch appends the wire encoding of batch to dst: per element a
// varint bag tag followed by the val binary encoding.
func encodeBatch(dst []byte, batch []Element) []byte {
	for _, e := range batch {
		dst = binary.AppendVarint(dst, int64(e.Tag))
		dst = val.AppendBinary(dst, e.Val)
	}
	return dst
}

// decodeBatch appends exactly count elements decoded from buf to dst,
// rejecting trailing garbage. On error the returned batch still holds the
// elements decoded so far, so a caller can recycle it (see recycleBatch).
func decodeBatch(dst []Element, buf []byte, count int) ([]Element, error) {
	batch := dst
	for i := 0; i < count; i++ {
		tag, n := binary.Varint(buf)
		if n <= 0 {
			return batch, fmt.Errorf("bad tag varint for element %d", i)
		}
		buf = buf[n:]
		v, used, err := val.DecodeBinary(buf)
		if err != nil {
			return batch, fmt.Errorf("element %d: %w", i, err)
		}
		buf = buf[used:]
		batch = append(batch, Element{Tag: Tag(tag), Val: v})
	}
	if len(buf) != 0 {
		return batch, fmt.Errorf("%d trailing bytes after %d elements", len(buf), count)
	}
	return batch, nil
}

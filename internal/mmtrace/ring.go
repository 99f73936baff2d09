package mmtrace

import (
	"sync"
	"sync/atomic"
)

// Span is one unit of replay work: frames [Lo, Hi) of trace Src on replay
// pass Pass. Producers enqueue spans instead of packets, so the ring moves
// 24-byte descriptors while the frame bytes stay put in the mapped file —
// the zero-copy half of the design. Consumers decode the span's frames
// into their own scratch right before processing, when the bytes are about
// to be hot anyway.
type Span struct {
	Src  int32 // index into the replayer's trace set
	Pass int32 // replay pass (loop mode re-enqueues the trace)
	Lo   int64 // first frame (inclusive)
	Hi   int64 // last frame (exclusive)
}

// slot pads each span to a cache line so neighboring slots never
// false-share: the slot's sequence number is its publish/release handshake.
type slot struct {
	seq  atomic.Uint64
	span Span
	_    [64 - 8 - 24]byte
}

// Ring is a bounded multi-producer/multi-consumer queue of spans in the
// style of Vyukov's MPMC array queue, extended with batch claim/publish:
// a producer claims n slots with one fetch-add on head, a consumer claims
// up to the published backlog with one CAS on tail, and per-slot sequence
// numbers order the handoff without any lock. head and tail live on their
// own cache lines so producers and consumers never ping-pong a line.
//
// The protocol per slot at position pos (capacity C):
//
//	seq == pos      free — the producer that claimed pos may write it
//	seq == pos+1    published — the consumer that claimed pos may read it
//	seq == pos+C    released — free again for the producer of pos+C
//
// Producers that claim into a full ring wait on the slot's seq (counted in
// PushStalls); consumers with an empty ring wait on head, and a consumer
// that claimed a slot not yet published waits on its seq (both counted in
// PopStalls). One wait counts one stall. Every wait parks the goroutine
// (see parker) rather than yielding in a loop: a replay that keeps the
// ring full then leaves its P idle, so the scheduler keeps polling the
// network instead of leaving loopback rpc traffic to sysmon's ~10 ms poll.
type Ring struct {
	slots      []slot
	mask       uint64
	_          [40]byte
	head       atomic.Uint64 // next position a producer claims
	_          [56]byte
	tail       atomic.Uint64 // next position a consumer claims
	_          [56]byte
	closed     atomic.Bool
	pushStalls atomic.Uint64
	popStalls  atomic.Uint64
	spans      atomic.Uint64 // spans ever published
	_          [32]byte
	notFull    parker // producers waiting for a slot release
	_          [56]byte
	notEmpty   parker // consumers waiting for a claim, a publish or Close
}

// parker is the ring's park/wake primitive. A waiter registers in waiters,
// then re-checks its condition under mu and sleeps on cond until it holds.
// A waker changes the condition first (an atomic store) and then reads
// waiters, broadcasting only when it is non-zero. Both sides' atomics are
// sequentially consistent, so either the waker sees the registration and
// broadcasts, or the waiter's re-check sees the change: no wakeup is lost,
// and the uncontended path costs the waker one atomic load. Waiters are a
// count, not a list, so parking never allocates.
type parker struct {
	waiters atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond
}

// wait parks the caller until ready reports true. The caller has already
// seen ready fail once and counted the stall.
func (p *parker) wait(ready func() bool) {
	p.waiters.Add(1)
	p.mu.Lock()
	for !ready() {
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.waiters.Add(-1)
}

// wake wakes every parked waiter; call it after changing their condition.
func (p *parker) wake() {
	if p.waiters.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// NewRing returns a ring with at least the requested capacity, rounded up
// to a power of two (minimum 2).
func NewRing(capacity int) *Ring {
	c := 2
	for c < capacity {
		c <<= 1
	}
	r := &Ring{slots: make([]slot, c), mask: uint64(c - 1)}
	r.notFull.cond.L = &r.notFull.mu
	r.notEmpty.cond.L = &r.notEmpty.mu
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// PushBatch publishes every span, blocking while the ring is full. Spans
// become visible to consumers in claim order. Pushing after Close is a
// protocol violation (the closer is the last producer by construction in
// the replayer) and panics.
func (r *Ring) PushBatch(spans []Span) {
	for len(spans) > 0 {
		chunk := spans
		// Never claim more than the capacity in one go: a claim beyond C
		// outstanding slots could wait on itself.
		if len(chunk) > len(r.slots) {
			chunk = chunk[:len(r.slots)]
		}
		spans = spans[len(chunk):]
		if r.closed.Load() {
			panic("mmtrace: PushBatch after Close")
		}
		n := uint64(len(chunk))
		pos := r.head.Add(n) - n
		for i := range chunk {
			sl := &r.slots[(pos+uint64(i))&r.mask]
			want := pos + uint64(i)
			if sl.seq.Load() != want {
				r.pushStalls.Add(1)
				// Never park on un-notified publishes: consumers parked on
				// this chunk's earlier slots would sleep through spans
				// that are ready while this producer waits.
				r.notEmpty.wake()
				r.notFull.wait(func() bool { return sl.seq.Load() == want })
			}
			sl.span = chunk[i]
			sl.seq.Store(want + 1)
		}
		r.spans.Add(n)
		r.notEmpty.wake()
	}
}

// PopBatch fills dst with up to len(dst) spans, blocking while the ring is
// empty. It returns 0 only when the ring is closed and fully drained —
// the consumer's termination signal.
func (r *Ring) PopBatch(dst []Span) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		t := r.tail.Load()
		h := r.head.Load()
		avail := h - t
		if avail == 0 {
			if r.closed.Load() {
				// Re-read head after observing closed: a producer may have
				// pushed between the head load and its Close.
				if r.head.Load() == t {
					return 0
				}
				continue
			}
			r.popStalls.Add(1)
			r.notEmpty.wait(func() bool { return r.head.Load() != h || r.closed.Load() })
			continue
		}
		n := uint64(len(dst))
		if n > avail {
			n = avail
		}
		if !r.tail.CompareAndSwap(t, t+n) {
			continue
		}
		// Claimed [t, t+n). head may include slots a producer claimed but
		// has not published yet — the per-slot seq wait covers that window.
		for i := uint64(0); i < n; i++ {
			sl := &r.slots[(t+i)&r.mask]
			want := t + i + 1
			if sl.seq.Load() != want {
				r.popStalls.Add(1)
				// Never park on un-notified releases either: the producer
				// this wait depends on may itself be parked on one of
				// them, and neither side would wake the other.
				r.notFull.wake()
				r.notEmpty.wait(func() bool { return sl.seq.Load() == want })
			}
			dst[i] = sl.span
			// Release the slot for the producer one revolution ahead.
			sl.seq.Store(t + i + uint64(len(r.slots)))
		}
		r.notFull.wake()
		return int(n)
	}
}

// Close marks the stream complete. Consumers drain the remaining spans and
// then see 0 from PopBatch; Close wakes every parked consumer. Only the
// last producer may call Close.
func (r *Ring) Close() {
	r.closed.Store(true)
	r.notEmpty.wake()
}

// Closed reports whether Close has been called.
func (r *Ring) Closed() bool { return r.closed.Load() }

// Occupancy returns the spans currently claimed-or-published but not yet
// consumed, clamped to [0, Cap]. It is a racy snapshot, intended for
// telemetry.
func (r *Ring) Occupancy() int {
	h, t := r.head.Load(), r.tail.Load()
	if h < t {
		return 0
	}
	occ := h - t
	if occ > uint64(len(r.slots)) {
		occ = uint64(len(r.slots))
	}
	return int(occ)
}

// RingStats is a telemetry snapshot of the ring's counters.
type RingStats struct {
	Cap        int
	Occupancy  int
	Spans      uint64 // spans ever published
	PushStalls uint64 // producer waits on a full ring
	PopStalls  uint64 // consumer waits on an empty ring or unpublished slot
}

// Stats snapshots the ring's counters.
func (r *Ring) Stats() RingStats {
	return RingStats{
		Cap:        len(r.slots),
		Occupancy:  r.Occupancy(),
		Spans:      r.spans.Load(),
		PushStalls: r.pushStalls.Load(),
		PopStalls:  r.popStalls.Load(),
	}
}

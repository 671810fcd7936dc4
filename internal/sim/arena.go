package sim

// Arena recycles simulation-kernel memory across consecutive short-lived
// worlds, so a campaign running thousands of trials on one worker stops
// paying per-trial allocation and GC for scheduler events, the event heap
// and radio-frame scratch buffers.
//
// An arena backs at most one live world at a time: calling NewScheduler
// reclaims everything handed out for the previous scheduler (its queued
// event structs, its heap backing array and the byte arena's chunks), so
// the caller must be completely done with the previous world — including
// anything that aliases arena-backed memory, such as received frame PDUs —
// before building the next one. The campaign runner keeps one arena per
// worker, which satisfies this by construction: a worker finishes trial N
// before starting trial N+1.
//
// Arenas are not safe for concurrent use. Reuse never changes observable
// behaviour: recycled buffers are fully reinitialised before handing out,
// and no RNG state lives in the arena.
type Arena struct {
	prev  *Scheduler
	bytes ByteArena
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// NewScheduler returns a fresh scheduler backed by the arena, first
// reclaiming the previous scheduler's memory (queued events, free list and
// heap backing) and resetting the byte arena. The previously returned
// scheduler and anything holding arena-backed memory must no longer be in
// use.
func (a *Arena) NewScheduler() *Scheduler {
	s := NewScheduler()
	if p := a.prev; p != nil {
		// Every event still queued in the dead scheduler joins the new
		// free list; release drops their callbacks and arguments so
		// retained closures and argument objects are released.
		free := p.free
		for _, e := range p.heap {
			e.release()
			e.next = free
			free = e
		}
		s.free = free
		s.heap = p.heap[:0]
		p.heap = nil
		p.free = nil
	}
	a.bytes.Reset()
	a.prev = s
	return s
}

// Bytes returns the arena's byte allocator (reset on every NewScheduler).
func (a *Arena) Bytes() *ByteArena { return &a.bytes }

// byteArenaChunk is the allocation granularity of a ByteArena. Frame PDUs
// are tens of bytes, so one chunk amortises thousands of clones.
const byteArenaChunk = 64 << 10

// ByteArena is a bump allocator for short-lived byte buffers (radio-frame
// PDU clones). Alloc never zeroes and never frees individually; Reset
// retires every allocation at once while keeping the chunks for reuse. The
// zero value is ready to use.
type ByteArena struct {
	cur    []byte   // active chunk; len = bytes used
	spare  [][]byte // retired chunks kept across Reset for reuse
	filled [][]byte // chunks filled since the last Reset
}

// NewByteArena returns an empty byte arena.
func NewByteArena() *ByteArena { return &ByteArena{} }

// Alloc returns an uninitialised n-byte slice carved from the arena. The
// slice is valid until Reset. Requests larger than the chunk size get a
// dedicated allocation.
func (a *ByteArena) Alloc(n int) []byte {
	if n > byteArenaChunk {
		return make([]byte, n)
	}
	if cap(a.cur)-len(a.cur) < n {
		if a.cur != nil {
			a.filled = append(a.filled, a.cur)
		}
		if k := len(a.spare); k > 0 {
			a.cur = a.spare[k-1][:0]
			a.spare[k-1] = nil
			a.spare = a.spare[:k-1]
		} else {
			a.cur = make([]byte, 0, byteArenaChunk)
		}
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off+n : off+n]
}

// Copy clones b into the arena.
func (a *ByteArena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := a.Alloc(len(b))
	copy(c, b)
	return c
}

// Reset retires every allocation, keeping chunk memory for reuse. All
// slices previously returned by Alloc/Copy become invalid.
func (a *ByteArena) Reset() {
	for i, c := range a.filled {
		a.spare = append(a.spare, c[:0])
		a.filled[i] = nil
	}
	a.filled = a.filled[:0]
	if a.cur != nil {
		a.cur = a.cur[:0]
	}
}

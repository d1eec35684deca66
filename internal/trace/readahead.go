package trace

import "frontsim/internal/isa"

// ReadAhead reads a BlockSource's runs on a producer goroutine, ahead of
// the goroutine that consumes them, so generating a stream and simulating
// it overlap on two cores. Each run is read with the max given to
// NewReadAhead and served whole, in order, with the error it came with; a
// panic in the source is re-raised, with the same value, at the run where
// reading the source directly would have raised it. So the consumer sees
// what it would have seen reading the source itself.
//
// Between Start and Stop the source belongs to the producer. Outside them,
// NextBlock serves what was read ahead and then reads the source directly.
type ReadAhead struct {
	src BlockSource
	max int

	full chan *runChunk // filled chunks in stream order
	free chan *runChunk // consumed chunks, back to the producer
	quit chan struct{}  // Stop's request to a producer waiting for a chunk
	done chan struct{}  // the producer's exit

	running bool      // a producer was started and not yet joined
	ended   bool      // the producer has sent its last chunk
	cur     *runChunk // the chunk being consumed, nil between chunks
	next    int       // the run of cur NextBlock serves next
}

// runChunk holds whole runs back to back.
type runChunk struct {
	instrs []isa.Instr
	ends   []int32 // ends[i] is where run i ends in instrs
	err    error   // returned with the last run: the stream ended or failed
	panic  any     // raised after the last run: the source panicked
}

// A chunk holds more than readAheadChunkInstrs instructions: enough that
// handing it across goroutines, which may wake a parked one, costs about
// 1% of simulating it. readAheadChunks chunks circulate, so the producer
// can run up to that many chunks ahead and absorb bursts in either side's
// rate. The pool is 4 × 4096 × 32 B = 512 KiB per source.
const (
	readAheadChunkInstrs = 4096
	readAheadChunks      = 4
)

// NewReadAhead returns a read-ahead over src whose runs are read with max.
// Its chunk pool is made on the first Start.
func NewReadAhead(src BlockSource, max int) *ReadAhead {
	return &ReadAhead{src: src, max: max}
}

// Start starts the producer. The source belongs to it until Stop.
func (r *ReadAhead) Start() {
	if r.full == nil {
		// Both queues hold the whole pool, so no send ever blocks.
		r.full = make(chan *runChunk, readAheadChunks)
		r.free = make(chan *runChunk, readAheadChunks)
		r.quit = make(chan struct{})
		r.done = make(chan struct{}, 1) // the producer's exit never waits for Stop
		// Room for one more run, and an end per instruction plus one for
		// an empty last run.
		n := readAheadChunkInstrs + r.max
		for i := 0; i < readAheadChunks; i++ {
			r.free <- &runChunk{instrs: make([]isa.Instr, 0, n), ends: make([]int32, 0, n+1)}
		}
	}
	r.running, r.ended = true, false
	go r.produce()
}

// Stop ends the producer and waits for it to exit; what it read ahead stays
// queued for NextBlock. It is safe on every path out of the consumer,
// including a panic unwinding.
func (r *ReadAhead) Stop() {
	if !r.running {
		return
	}
	r.running = false
	select {
	case r.quit <- struct{}{}:
		<-r.done
	case <-r.done:
	}
}

// produce fills free chunks until Stop or the stream's last run.
func (r *ReadAhead) produce() {
	defer func() { r.done <- struct{}{} }()
	for {
		select {
		case c := <-r.free:
			c.fill(r.src, r.max)
			r.full <- c
			if c.err != nil || c.panic != nil {
				return
			}
		case <-r.quit:
			return
		}
	}
}

// fill reads runs into c until another might not fit, the stream ends or
// fails, or the source panics.
func (c *runChunk) fill(src BlockSource, max int) {
	c.instrs, c.ends, c.err = c.instrs[:0], c.ends[:0], nil
	defer func() { c.panic = recover() }()
	for c.err == nil && len(c.instrs)+max <= cap(c.instrs) {
		c.instrs, c.err = src.NextBlock(c.instrs, max)
		c.ends = append(c.ends, int32(len(c.instrs)))
	}
}

// Next implements Source by reading the source directly. Runs read ahead
// can only be served whole, so Next panics while any are.
func (r *ReadAhead) Next() (isa.Instr, error) {
	if r.running || r.cur != nil || len(r.full) > 0 {
		panic("trace: ReadAhead.Next with runs read ahead")
	}
	return r.src.Next()
}

// NextBlock implements BlockSource. While runs are read ahead, max must be
// the max given to NewReadAhead.
func (r *ReadAhead) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	if r.cur == nil {
		if len(r.full) == 0 && (!r.running || r.ended) {
			return r.src.NextBlock(buf, max)
		}
		r.cur, r.next = <-r.full, 0
	}
	if max != r.max {
		panic("trace: ReadAhead.NextBlock with another max than its runs were read with")
	}
	c := r.cur
	if r.next < len(c.ends) {
		start := int32(0)
		if r.next > 0 {
			start = c.ends[r.next-1]
		}
		buf = append(buf, c.instrs[start:c.ends[r.next]]...)
		if r.next++; r.next < len(c.ends) || c.panic != nil {
			return buf, nil
		}
	}
	// The chunk is the producer's again once sent back: read it first.
	err, v := c.err, c.panic
	r.cur, r.ended = nil, err != nil || v != nil
	r.free <- c
	if v != nil {
		panic(v)
	}
	return buf, err
}

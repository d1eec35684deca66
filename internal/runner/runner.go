// Package runner provides the shared execution substrate for the
// experiment harness: a work-stealing job scheduler with fork-join groups
// (so one slow workload's configurations spread across idle workers instead
// of serializing), a content-addressed on-disk result cache keyed by a
// canonical hash of each job's full input (so re-runs after unrelated code
// changes are near-instant), and per-job progress/ETA reporting.
//
// The package is deliberately generic: it knows nothing about simulations.
// internal/experiment builds per-(workload, configuration) jobs on top of
// it, and the cache's correctness rests on the simulator's determinism —
// guarded by the determinism regression tests in internal/experiment.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned (via Group.Wait) for tasks submitted after
// Close: the submission is refused — neither executed nor silently
// dropped — and the group's join surfaces the refusal.
var ErrPoolClosed = errors.New("runner: pool closed")

// task is one schedulable unit of work, always owned by a Group.
type task struct {
	fn func() error
	g  *Group
}

// Pool is a work-stealing scheduler. Each worker owns a LIFO deque;
// submissions are distributed round-robin and idle workers steal the
// oldest task from the busiest deque. Groups provide fork-join structure:
// a task may spawn a subgroup and Wait on it, and the waiting goroutine
// helps execute its own group's queued tasks, so nested waits never
// deadlock even with a single worker.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*task
	next   int // round-robin push cursor
	queued int // tasks currently queued across all deques
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (<=0 means
// GOMAXPROCS). Goroutines that Wait on a group additionally execute that
// group's queued tasks themselves, so effective concurrency can briefly
// exceed the worker count by the number of concurrent waiters.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{deques: make([][]*task, workers)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.deques) }

// Close stops the workers once every queued task has drained. Close is
// idempotent: concurrent or repeated calls all block until the workers
// have exited. Submissions racing with Close either run to completion or
// are refused with ErrPoolClosed (see Group.Go); they are never dropped.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		t := p.takeLocked(id, nil)
		if t == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		p.run(t)
		p.mu.Lock()
	}
}

// takeLocked removes one runnable task. A worker (self >= 0) pops its own
// deque newest-first and steals oldest-first from the longest other deque.
// A group waiter (g != nil) takes only tasks belonging to its group, so a
// helping Wait cannot wander into an unrelated long-running job.
func (p *Pool) takeLocked(self int, g *Group) *task {
	if g != nil {
		for di, d := range p.deques {
			for i := len(d) - 1; i >= 0; i-- {
				if d[i].g == g {
					t := d[i]
					p.deques[di] = append(d[:i:i], d[i+1:]...)
					p.queued--
					return t
				}
			}
		}
		return nil
	}
	if self >= 0 {
		if d := p.deques[self]; len(d) > 0 {
			t := d[len(d)-1]
			p.deques[self] = d[:len(d)-1]
			p.queued--
			return t
		}
	}
	victim, longest := -1, 0
	for i, d := range p.deques {
		if i != self && len(d) > longest {
			victim, longest = i, len(d)
		}
	}
	if victim < 0 {
		return nil
	}
	d := p.deques[victim]
	t := d[0]
	p.deques[victim] = d[1:]
	p.queued--
	return t
}

var errTaskPanic = errors.New("runner: task panicked")

// run executes t and settles its group bookkeeping. On panic the group is
// still decremented (so waiters are not stranded) before the panic
// propagates and crashes the process with the original stack.
func (p *Pool) run(t *task) {
	panicked := true
	var err error
	defer func() {
		p.mu.Lock()
		t.g.active--
		if panicked && t.g.err == nil {
			t.g.err = errTaskPanic
		} else if err != nil && t.g.err == nil {
			t.g.err = err
		}
		if t.g.active == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}()
	err = t.fn()
	panicked = false
}

// Group is a fork-join scope: spawn tasks with Go, join with Wait.
type Group struct {
	p         *Pool
	active    int   // tasks spawned and not yet finished; guarded by p.mu
	err       error // first error; guarded by p.mu
	cancelled bool  // WaitCtx observed its context die; guarded by p.mu
}

// NewGroup creates an empty group on the pool.
func (p *Pool) NewGroup() *Group { return &Group{p: p} }

// Go submits fn to the pool as part of the group. Submitting to a closed
// pool, or to a group whose WaitCtx has already been cancelled, refuses
// the task: fn never runs and the group's join returns ErrPoolClosed
// (respectively the context's error) instead of panicking or silently
// dropping work.
func (g *Group) Go(fn func() error) {
	t := &task{fn: fn, g: g}
	p := g.p
	p.mu.Lock()
	if p.closed || g.cancelled {
		if g.err == nil {
			if p.closed {
				g.err = ErrPoolClosed
			} else {
				g.err = context.Canceled
			}
		}
		// Waiters must still wake up: the refused submission may be the
		// event a Wait with active==0 is blocked on.
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	g.active++
	i := p.next % len(p.deques)
	p.next++
	p.deques[i] = append(p.deques[i], t)
	p.queued++
	// Broadcast, not Signal: a group waiter can be woken by a task it is
	// not allowed to take, and a single consumed signal would then strand
	// the task with every worker asleep.
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Wait blocks until every task spawned on the group has finished and
// returns the first error any of them produced. While waiting it executes
// the group's own queued tasks, so a task that forks a subgroup and joins
// it makes progress even when every worker is busy.
func (g *Group) Wait() error {
	p := g.p
	p.mu.Lock()
	for g.active > 0 {
		t := p.takeLocked(-1, g)
		if t == nil {
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		p.run(t)
		p.mu.Lock()
	}
	err := g.err
	p.mu.Unlock()
	return err
}

// WaitCtx is Wait with abandonment: when ctx ends first, the group's
// still-queued tasks are aborted (unqueued, never started), further Go
// calls on the group are refused, and WaitCtx blocks only for the tasks
// already running — which are expected to observe the same ctx and bail
// cooperatively — before returning the context's error. So a cancelled
// join leaves no orphan task that could later write into shared state.
func (g *Group) WaitCtx(ctx context.Context) error {
	if ctx.Done() == nil {
		return g.Wait() //lint:allow ctx can never fire (Done() is nil); the plain join is the fast path
	}
	p := g.p
	// Wake the cond loop when ctx fires; cond.Wait cannot watch a channel.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()

	p.mu.Lock()
	for g.active > 0 {
		if ctx.Err() != nil && !g.cancelled {
			g.cancelled = true
			p.purgeLocked(g)
			if g.err == nil {
				g.err = ctx.Err()
			}
		}
		// Once cancelled, stop helping: draining the group's queue has
		// already happened via purge, so only in-flight tasks remain.
		if !g.cancelled {
			if t := p.takeLocked(-1, g); t != nil {
				p.mu.Unlock()
				p.run(t)
				p.mu.Lock()
				continue
			}
		}
		if g.active == 0 {
			break
		}
		p.cond.Wait()
	}
	err := g.err
	p.mu.Unlock()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// purgeLocked removes every queued (not yet running) task belonging to g,
// settling the group's bookkeeping as if each had never been spawned.
func (p *Pool) purgeLocked(g *Group) {
	for di, d := range p.deques {
		kept := d[:0]
		for _, t := range d {
			if t.g == g {
				g.active--
				p.queued--
				continue
			}
			kept = append(kept, t)
		}
		p.deques[di] = kept
	}
	if g.active == 0 {
		p.cond.Broadcast()
	}
}

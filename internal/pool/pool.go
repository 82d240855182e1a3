// Package pool implements the engine's concurrency primitives: the
// work-stealing morsel pool that runs intra-query parallel work, the
// admission gate, and Pool, a fixed-size task pool modelling the paper's
// module threadpool (Section II), where every query executes on exactly one
// worker. The throughput experiment drives Pool in-process; the server
// bounds its GRAPH.* commands to THREAD_COUNT at a time instead.
package pool

import (
	"fmt"
	"sync"
)

// Task is a unit of work returning an arbitrary result.
type Task func() (any, error)

// Future resolves to a task's result.
type Future struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the task completes.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// Pool is a fixed-size worker pool.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	size    int
	mu      sync.Mutex
	closed  bool
	pending int
}

// New starts a pool with n workers (n < 1 is clamped to 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan func(), 1024), size: n}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// Pending returns the number of queued or running tasks.
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Submit enqueues a task, returning a Future for its completion.
func (p *Pool) Submit(t Task) (*Future, error) {
	f := &Future{done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("pool: closed")
	}
	p.pending++
	p.mu.Unlock()
	p.tasks <- func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("pool: task panic: %v", r)
			}
			p.mu.Lock()
			p.pending--
			p.mu.Unlock()
			close(f.done)
		}()
		f.val, f.err = t()
	}
	return f, nil
}

// Close drains queued tasks and stops the workers.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}

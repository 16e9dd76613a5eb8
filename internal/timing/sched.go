package timing

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rctree"
)

// propScratch holds the reusable allocations of parallel propagation: one
// characteristic-times scratch per worker, the remaining-fanin counters, and
// the per-worker deques. Reusing it across runs keeps repeated propagation
// (benchmarks, server steady state) off the allocator.
type propScratch struct {
	scratch   []rctree.Scratch
	remaining []int32
	deques    []workDeque
}

func (a *designArena) newPropScratch(workers int) *propScratch {
	return &propScratch{
		scratch:   make([]rctree.Scratch, workers),
		remaining: make([]int32, a.nets),
		deques:    make([]workDeque, workers),
	}
}

// workDeque is a mutex-guarded per-worker deque. Nets are coarse work items
// (one full per-net bound computation each), so lock traffic is negligible
// next to the compute; the mutex keeps the scheduler trivially race-clean.
type workDeque struct {
	mu    sync.Mutex
	items []int32
}

func (d *workDeque) push(i int32) {
	d.mu.Lock()
	d.items = append(d.items, i)
	d.mu.Unlock()
}

// pop removes LIFO — the owner descends the cone it just opened.
func (d *workDeque) pop() (int32, bool) {
	d.mu.Lock()
	n := len(d.items)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	i := d.items[n-1]
	d.items = d.items[:n-1]
	d.mu.Unlock()
	return i, true
}

// steal removes FIFO — thieves take the oldest (widest) pending work.
func (d *workDeque) steal() (int32, bool) {
	d.mu.Lock()
	if len(d.items) == 0 {
		d.mu.Unlock()
		return 0, false
	}
	i := d.items[0]
	d.items = d.items[1:]
	d.mu.Unlock()
	return i, true
}

// propagate dispatches one full propagation over the arena: sequential on
// the caller's goroutine for one worker, work-stealing across workers
// otherwise. ps may be nil for one-shot analyses; reuse it (sized for the
// same worker count) to keep steady-state runs allocation-lean. Results are
// bit-identical across worker counts: each net's computation is a pure
// function of its drivers' final state.
func (a *designArena) propagate(ctx context.Context, st *arenaState, th float64, workers int, ps *propScratch) error {
	if workers > a.nets {
		workers = a.nets
	}
	if workers <= 1 {
		return a.propagateSeq(ctx, st, th, &rctree.Scratch{})
	}
	if ps == nil || len(ps.scratch) < workers {
		ps = a.newPropScratch(workers)
	}
	return a.propagateSteal(ctx, st, th, workers, ps)
}

// propErr collects the first error across workers and flags abort.
type propErr struct {
	abort atomic.Bool
	once  sync.Once
	err   error
}

func (p *propErr) set(err error) {
	p.once.Do(func() { p.err = err })
	p.abort.Store(true)
}

// propagateSteal runs the work-stealing schedule: per-net atomic
// remaining-fanin counters gate readiness (no level barriers), a finished
// net releases exactly the successors that became ready into the finisher's
// own deque — popped LIFO, chasing the fanout cone depth-first for locality
// — and idle workers steal FIFO from victims. Narrow-but-deep designs keep
// every worker busy as long as any independent cone remains.
func (a *designArena) propagateSteal(ctx context.Context, st *arenaState, th float64, workers int, ps *propScratch) error {
	// Mid-flight cancellation is caught in the idle loop; a context canceled
	// before entry would otherwise slip past workers that never go idle.
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := 0; i < a.nets; i++ {
		ps.remaining[i] = a.finOff[i+1] - a.finOff[i]
	}
	for w := range ps.deques[:workers] {
		ps.deques[w].items = ps.deques[w].items[:0]
	}
	// Seed the primary-input nets round-robin so every worker starts with
	// an independent cone.
	seeded := 0
	for i := 0; i < a.nets; i++ {
		if ps.remaining[i] == 0 {
			ps.deques[seeded%workers].push(int32(i))
			seeded++
		}
	}
	var (
		pe        propErr
		completed atomic.Int32
		wg        sync.WaitGroup
	)
	total := int32(a.nets)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &ps.scratch[w]
			own := &ps.deques[w]
			for {
				if pe.abort.Load() {
					return
				}
				i, ok := own.pop()
				if !ok {
					for v := 1; v < workers && !ok; v++ {
						i, ok = ps.deques[(w+v)%workers].steal()
					}
				}
				if !ok {
					if completed.Load() == total {
						return
					}
					if err := ctx.Err(); err != nil {
						pe.set(err)
						return
					}
					runtime.Gosched()
					continue
				}
				if err := a.computeNet(st, th, i, s); err != nil {
					pe.set(err)
					return
				}
				for e := a.foutOff[i]; e < a.foutOff[i+1]; e++ {
					j := a.foutTo[e]
					if atomic.AddInt32(&ps.remaining[j], -1) == 0 {
						own.push(j)
					}
				}
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if pe.abort.Load() {
		return pe.err
	}
	return nil
}

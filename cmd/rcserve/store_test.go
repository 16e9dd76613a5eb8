package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a store's injected now() deterministically; Advance is
// safe to call concurrently with store operations.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestStorePinnedEntrySurvivesEviction is the regression test for the old
// store's lifecycle race: LRU eviction could drop a session while a handler
// was still mutating it. With pinning, the in-flight (pinned) entry is never
// the eviction victim — the unpinned one is, even when it is more recently
// used on the clock.
func TestStorePinnedEntrySurvivesEviction(t *testing.T) {
	clk := newFakeClock()
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 2})
	st.now = clk.Now

	pinned := st.create(1) // stays pinned: an in-flight handler holds it
	clk.Advance(time.Second)
	idle := st.create(2)
	st.release(idle) // handler done; evictable
	clk.Advance(time.Second)

	// At cap: the next create must evict. The oldest entry is pinned, so the
	// victim has to be the idle one.
	third := st.create(3)
	defer st.release(third)
	if _, ok := st.get(idle.id); ok {
		t.Fatal("unpinned entry survived eviction while an older pinned one existed")
	}
	if e, ok := st.get(pinned.id); !ok {
		t.Fatal("pinned entry was evicted out from under its holder")
	} else {
		st.release(e)
	}
	st.release(pinned)
}

// TestStoreAllPinnedAdmitsOverCap: when every entry is pinned there is no
// safe victim; the store admits over cap rather than dropping live work.
func TestStoreAllPinnedAdmitsOverCap(t *testing.T) {
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 1})
	a := st.create(1)
	b := st.create(2) // over cap: a is pinned, not evictable
	if st.active() != 2 {
		t.Fatalf("active = %d, want 2 (admit over cap)", st.active())
	}
	st.release(a)
	st.release(b)
}

// TestStorePinnedEntrySurvivesSweep: a pinned entry idle past the TTL must
// not expire — neither on sweep nor on a concurrent get — until released.
func TestStorePinnedEntrySurvivesSweep(t *testing.T) {
	clk := newFakeClock()
	st := newTTLStore[int](storeConfig{ttl: time.Minute, max: 8})
	st.now = clk.Now

	e := st.create(7)
	clk.Advance(2 * time.Minute) // far past the TTL, but still pinned
	st.sweep()
	got, ok := st.get(e.id)
	if !ok {
		t.Fatal("pinned entry expired under its holder")
	}
	st.release(got)
	st.release(e)

	// Unpinned now, and get refreshed lastUsed; after another full TTL the
	// sweep takes it.
	clk.Advance(time.Minute)
	st.sweep()
	if _, ok := st.get(e.id); ok {
		t.Fatal("unpinned idle entry survived the sweep")
	}
}

// TestStoreTTLBoundaryAgrees pins the unified expiry comparison: an entry
// idle exactly one TTL is expired on the access path and the sweep path
// alike. (The old store used "> ttl" in get but "Before(cutoff)" in sweep,
// so at exactly ttl the two paths disagreed.)
func TestStoreTTLBoundaryAgrees(t *testing.T) {
	ttl := time.Minute

	// Access path: get at exactly ttl idle misses.
	clk := newFakeClock()
	st := newTTLStore[int](storeConfig{ttl: ttl, max: 8})
	st.now = clk.Now
	e := st.create(1)
	st.release(e)
	clk.Advance(ttl)
	if _, ok := st.get(e.id); ok {
		t.Error("get: entry idle exactly ttl still alive")
	}

	// Sweep path: same idle age, same verdict.
	clk2 := newFakeClock()
	st2 := newTTLStore[int](storeConfig{ttl: ttl, max: 8})
	st2.now = clk2.Now
	e2 := st2.create(1)
	st2.release(e2)
	clk2.Advance(ttl)
	st2.sweep()
	if st2.active() != 0 {
		t.Error("sweep: entry idle exactly ttl still alive")
	}

	// One tick short of the boundary survives both paths.
	clk3 := newFakeClock()
	st3 := newTTLStore[int](storeConfig{ttl: ttl, max: 8})
	st3.now = clk3.Now
	e3 := st3.create(1)
	st3.release(e3)
	clk3.Advance(ttl - time.Nanosecond)
	st3.sweep()
	got, ok := st3.get(e3.id)
	if !ok {
		t.Fatal("entry idle just under ttl expired early")
	}
	st3.release(got)
}

// TestStoreAdmitBackpressure: admission is per entry. An entry admits
// exactly queue-depth heavy requests and refuses the next (the handler's
// 429) until one ends, while another entry is still admitted.
func TestStoreAdmitBackpressure(t *testing.T) {
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 8, queue: 2})
	a, b := st.create(1), st.create(2)
	defer st.release(a)
	defer st.release(b)
	d1, ok1 := st.admit(a)
	d2, ok2 := st.admit(a)
	if !ok1 || !ok2 {
		t.Fatal("admission under the queue depth refused")
	}
	if _, ok := st.admit(a); ok {
		t.Fatal("admission over the queue depth granted")
	}
	if got := st.stats()["rejected"]; got != int64(1) {
		t.Errorf("rejected = %v, want 1", got)
	}
	db, ok := st.admit(b)
	if !ok {
		t.Fatal("a full entry refused admission to another entry")
	}
	db()
	d1()
	d3, ok := st.admit(a)
	if !ok {
		t.Fatal("ended admission not reusable")
	}
	d3()
	d2()
	if a.inflight != 0 || b.inflight != 0 {
		t.Errorf("in flight after every admission ended: a %d, b %d", a.inflight, b.inflight)
	}
}

// TestStoreEditRateLimit: the token bucket grants the burst immediately,
// refuses beyond it, and refills at editRate per (injected-clock) second.
func TestStoreEditRateLimit(t *testing.T) {
	clk := newFakeClock()
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 8, editRate: 10, editBurst: 5})
	st.now = clk.Now
	e := st.create(1)
	defer st.release(e)

	if !st.allowEdits(e, 5) {
		t.Fatal("burst refused")
	}
	if st.allowEdits(e, 1) {
		t.Fatal("edit over the drained bucket allowed")
	}
	if got := st.stats()["throttled"]; got != int64(1) {
		t.Errorf("throttled = %v, want 1", got)
	}
	clk.Advance(300 * time.Millisecond) // 3 tokens back at 10/s
	if !st.allowEdits(e, 3) {
		t.Fatal("refilled tokens refused")
	}
	if st.allowEdits(e, 1) {
		t.Fatal("bucket over-refilled")
	}
	clk.Advance(time.Hour)
	if !st.allowEdits(e, 5) {
		t.Fatal("full burst refused after a long idle")
	}
	if st.allowEdits(e, 6) {
		t.Fatal("bucket refilled past the burst cap")
	}
}

// TestStoreLifecycleHammer drives create/get/release/delete/sweep/evict
// concurrently against a tiny cap — under -race this is the regression test
// for the eviction-vs-in-flight-handler races the pinned store closes.
func TestStoreLifecycleHammer(t *testing.T) {
	clk := newFakeClock()
	st := newTTLStore[int](storeConfig{ttl: 10 * time.Millisecond, max: 4})
	st.now = clk.Now

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	ids := make(chan string, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					e := st.create(w)
					ids <- e.id
					st.release(e)
				case 1:
					select {
					case id := <-ids:
						if e, ok := st.get(id); ok {
							if e.val < 0 || e.val >= workers {
								t.Errorf("entry %s: val %d out of range", id, e.val)
							}
							st.release(e)
						}
					default:
					}
				case 2:
					select {
					case id := <-ids:
						st.delete(id)
					default:
					}
				default:
					clk.Advance(time.Millisecond)
					st.sweep()
				}
			}
		}(w)
	}
	wg.Wait()

	// Every pin was released.
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, e := range st.m {
		if e.refs != 0 {
			t.Errorf("entry %s still pinned %d times", id, e.refs)
		}
	}
}

// TestStoreCapacityUnderConcurrentCreates: 32 goroutines create, get and
// release on a store of max 4, holding at most 4 pins at once, so whenever
// the store holds more than 4 entries one of them is unpinned and a create
// must have evicted it. The cap check, eviction and insert of create share
// one critical section, so no interleaving of creates overshoots the cap.
func TestStoreCapacityUnderConcurrentCreates(t *testing.T) {
	const limit, workers, iters = 4, 32, 200
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: limit})
	pins := make(chan struct{}, limit)
	var wg sync.WaitGroup
	ids := make(chan string, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pins <- struct{}{}
				var e *entry[int]
				if i%2 == 0 {
					e = st.create(w)
					ids <- e.id
				} else {
					select {
					case id := <-ids:
						e, _ = st.get(id)
					default:
					}
				}
				if n := st.active(); n > limit {
					t.Errorf("%d entries live with at most %d pinned, cap %d", n, limit, limit)
				}
				if e != nil {
					st.release(e)
				}
				<-pins
			}
		}(w)
	}
	wg.Wait()
	if n := st.active(); n > limit {
		t.Fatalf("%d entries live after every pin was released, cap %d", n, limit)
	}
}

// TestStoreReleasePanicsOnUnderflow: releasing an entry more times than it
// was pinned is a handler bug the store refuses to absorb silently.
func TestStoreReleasePanicsOnUnderflow(t *testing.T) {
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 8})
	e := st.create(1)
	st.release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	st.release(e)
}

// TestStoreStatsShape: the stats map feeds /healthz; keep its keys stable.
func TestStoreStatsShape(t *testing.T) {
	st := newTTLStore[int](storeConfig{ttl: time.Hour, max: 8})
	e := st.create(1)
	st.release(e)
	got := st.stats()
	keys := []string{"active", "created", "expired", "closed", "evicted", "rejected", "throttled"}
	for _, key := range keys {
		if _, ok := got[key]; !ok {
			t.Errorf("stats missing %q: %v", key, got)
		}
	}
	if len(got) != len(keys) {
		t.Errorf("stats has %d keys, want %d: %v", len(got), len(keys), got)
	}
	if got["active"].(int) != 1 || got["created"].(int64) != 1 {
		t.Errorf("stats = %v", got)
	}
}

package main

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// entry is one stored value with its lifecycle bookkeeping. The payload is
// reachable as val; the id is the client-facing handle. refs counts in-flight
// handlers holding the entry (pinned entries are never evicted — eviction
// racing a handler that is still mutating val was the old store's data-loss
// bug); inflight counts the heavy requests admitted on it; the token-bucket
// fields implement the per-session edit-rate limit. All mutable fields are
// guarded by the store's mutex.
type entry[T any] struct {
	id       string
	val      T
	created  time.Time
	lastUsed time.Time
	refs     int
	inflight int
	tokens   float64
	tokensAt time.Time
}

// storeConfig sizes a ttlStore. Zero values select the defaults.
type storeConfig struct {
	ttl   time.Duration // idle lifetime (>= ttl idle expires)
	max   int           // entry cap; LRU-evicted beyond
	queue int           // per-entry admission depth (in-flight heavy requests)
	// editRate/editBurst parameterize the per-session token bucket: a
	// session may apply editBurst edits at once and editRate edits/second
	// sustained. editRate 0 disables the limit.
	editRate  float64
	editBurst float64
}

func (c storeConfig) withDefaults() storeConfig {
	if c.ttl <= 0 {
		c.ttl = defaultSessionTTL
	}
	if c.max <= 0 {
		c.max = defaultMaxSessions
	}
	if c.queue <= 0 {
		c.queue = defaultQueue
	}
	if c.editRate > 0 && c.editBurst <= 0 {
		c.editBurst = defaultEditBurst
	}
	return c
}

// ttlStore owns live server-side state handed out by id — editing sessions,
// analyzed designs — with one shared lifecycle discipline: TTL-based expiry
// (entries idle for the full ttl are dropped on access or sweep) plus an
// LRU cap so a flood of clients cannot hold unbounded state in memory. One
// mutex guards the map and every entry's bookkeeping; the payloads carry
// their own locks, so a long request on one entry holds the store lock only
// for its lookup, admission and release.
//
// Lifecycle safety: get and create return entries pinned (refs > 0); the
// caller must release them when its request is done. Eviction — TTL sweep
// and LRU displacement alike — skips pinned entries, so a handler holding a
// *session can never have the store drop it mid-edit.
type ttlStore[T any] struct {
	cfg storeConfig
	now func() time.Time // injected for tests

	mu sync.Mutex
	m  map[string]*entry[T]

	created, expired, closed, evicted, rejected, throttled int64
}

func newTTLStore[T any](cfg storeConfig) *ttlStore[T] {
	return &ttlStore[T]{cfg: cfg.withDefaults(), now: time.Now, m: make(map[string]*entry[T])}
}

func newStoreID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("rcserve: store id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

func (st *ttlStore[T]) newEntry(id string, v T) *entry[T] {
	now := st.now()
	return &entry[T]{
		id: id, val: v,
		created: now, lastUsed: now,
		refs:   1,
		tokens: st.cfg.editBurst, tokensAt: now,
	}
}

// expiredLocked is the one TTL comparison both the access path and the sweep
// use: an entry idle for the full ttl is expired. (The old store wrote the
// comparison twice — "> ttl" in get, "Before(cutoff)" in sweep — leaving the
// exact-ttl boundary to drift between the paths.)
func (st *ttlStore[T]) expiredLocked(e *entry[T], now time.Time) bool {
	return now.Sub(e.lastUsed) >= st.cfg.ttl
}

// create registers a new entry under a fresh id and returns it pinned; the
// caller must release it. At capacity it first drops expired entries, then
// the least-recently-used unpinned ones; capacity check, eviction and insert
// share one critical section, so concurrent creates cannot overshoot the cap
// while an unpinned entry exists. When every entry is pinned it admits over
// the cap rather than drop live work.
func (st *ttlStore[T]) create(v T) *entry[T] {
	e := st.newEntry(newStoreID(), v)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.m) >= st.cfg.max {
		st.sweepLocked(e.created)
	}
	for len(st.m) >= st.cfg.max {
		if !st.evictLRULocked() {
			break
		}
	}
	st.m[e.id] = e
	st.created++
	return e
}

// insert registers a recovered entry under its persisted id, pinned. It
// reports false (and stores nothing) if the id is already live.
func (st *ttlStore[T]) insert(id string, v T) (*entry[T], bool) {
	e := st.newEntry(id, v)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.m[id]; exists {
		return nil, false
	}
	st.m[id] = e
	st.created++
	return e, true
}

// evictLRULocked drops the least-recently-used unpinned entry. It reports
// false when nothing is evictable (all entries pinned or the store empty).
func (st *ttlStore[T]) evictLRULocked() bool {
	var victim *entry[T]
	for _, e := range st.m {
		if e.refs == 0 && (victim == nil || e.lastUsed.Before(victim.lastUsed)) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(st.m, victim.id)
	st.evicted++
	return true
}

// get returns the entry pinned and refreshes its idle clock; the caller must
// release it. A pinned entry never TTL-expires out from under its other
// holders: expiry only applies at refs == 0.
func (st *ttlStore[T]) get(id string) (*entry[T], bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
	now := st.now()
	if e.refs == 0 && st.expiredLocked(e, now) {
		delete(st.m, id)
		st.expired++
		return nil, false
	}
	e.lastUsed = now
	e.refs++
	return e, true
}

// release unpins an entry returned by create, insert or get.
func (st *ttlStore[T]) release(e *entry[T]) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.refs <= 0 {
		panic("rcserve: store release without matching get")
	}
	e.refs--
}

// delete removes an entry by id. In-flight holders keep their pinned pointer
// (an explicit close while another request is mid-flight is the client's
// race to lose), but no new get will find it.
func (st *ttlStore[T]) delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[id]; !ok {
		return false
	}
	delete(st.m, id)
	st.closed++
	return true
}

// admit counts one more heavy request in flight on the pinned entry e. It
// reports false — the 429 backpressure signal — when e already has queue of
// them; otherwise the returned func ends the admission.
func (st *ttlStore[T]) admit(e *entry[T]) (func(), bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.inflight >= st.cfg.queue {
		st.rejected++
		return nil, false
	}
	e.inflight++
	return func() {
		st.mu.Lock()
		e.inflight--
		st.mu.Unlock()
	}, true
}

// allowEdits charges n edits against the entry's token bucket, reporting
// false — the 429 rate-limit signal — when the session is over its sustained
// edit rate. A zero-configured store never throttles.
func (st *ttlStore[T]) allowEdits(e *entry[T], n int) bool {
	if st.cfg.editRate <= 0 || n <= 0 {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	e.tokens += st.cfg.editRate * now.Sub(e.tokensAt).Seconds()
	if e.tokens > st.cfg.editBurst {
		e.tokens = st.cfg.editBurst
	}
	e.tokensAt = now
	if e.tokens < float64(n) {
		st.throttled++
		return false
	}
	e.tokens -= float64(n)
	return true
}

// sweep evicts every unpinned entry idle past the TTL; the janitor calls it
// on its tick and the shutdown drain once more.
func (st *ttlStore[T]) sweep() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
}

func (st *ttlStore[T]) sweepLocked(now time.Time) {
	for id, e := range st.m {
		if e.refs == 0 && st.expiredLocked(e, now) {
			delete(st.m, id)
			st.expired++
		}
	}
}

// janitor sweeps the store every quarter TTL (at least every second) until
// stop is closed. It blocks until then: main runs it on its own goroutine.
func (st *ttlStore[T]) janitor(stop <-chan struct{}) {
	interval := st.cfg.ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			st.sweep()
		case <-stop:
			return
		}
	}
}

// ids snapshots the live entry ids (the snapshotter's iteration order).
func (st *ttlStore[T]) ids() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.m))
	for id := range st.m {
		out = append(out, id)
	}
	return out
}

// active reports the live entry count — the sampled store-depth gauge.
func (st *ttlStore[T]) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// stats snapshots the counters for /healthz.
func (st *ttlStore[T]) stats() map[string]any {
	st.mu.Lock()
	defer st.mu.Unlock()
	return map[string]any{
		"active":    len(st.m),
		"created":   st.created,
		"expired":   st.expired,
		"closed":    st.closed,
		"evicted":   st.evicted,
		"rejected":  st.rejected,
		"throttled": st.throttled,
	}
}

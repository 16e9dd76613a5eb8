package main

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// entry is one stored value with its lifecycle bookkeeping. The payload is
// reachable as val; the id is the client-facing handle. refs counts in-flight
// handlers holding the entry (pinned entries are never evicted — eviction
// racing a handler that is still mutating val was the old store's data-loss
// bug); the token-bucket fields implement the per-session edit-rate limit.
// All mutable fields are guarded by the owning shard's mutex.
type entry[T any] struct {
	id       string
	val      T
	created  time.Time
	lastUsed time.Time
	refs     int
	tokens   float64
	tokensAt time.Time
}

// storeShard is one lock domain of the store: its own map, its own mutex,
// its own janitor tick, and its own bounded admission queue. Requests for
// different ids proceed without contending on a process-wide lock.
type storeShard[T any] struct {
	mu  sync.Mutex
	m   map[string]*entry[T]
	sem chan struct{} // admission queue: tokens for in-flight heavy requests
}

// storeConfig sizes a ttlStore. Zero values select the defaults.
type storeConfig struct {
	ttl    time.Duration // idle lifetime (>= ttl idle expires)
	max    int           // global entry cap; LRU-evicted beyond
	shards int           // id-hash lock shards
	queue  int           // per-shard admission-queue depth (in-flight heavy ops)
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
	if c.shards <= 0 {
		c.shards = defaultStoreShards
	}
	if c.queue <= 0 {
		c.queue = defaultShardQueue
	}
	if c.editRate > 0 && c.editBurst <= 0 {
		c.editBurst = defaultEditBurst
	}
	return c
}

// ttlStore owns live server-side state handed out by id — editing sessions,
// analyzed designs — with one shared lifecycle discipline: TTL-based expiry
// (entries idle for the full ttl are dropped on access or sweep) plus a
// global LRU cap so a flood of clients cannot hold unbounded state in
// memory. The map is split across id-hash shards, each with its own lock,
// janitor and bounded admission queue, so concurrent requests for different
// ids do not serialize on one mutex.
//
// Lifecycle safety: get and create return entries pinned (refs > 0); the
// caller must release them when its request is done. Eviction — TTL sweep
// and LRU displacement alike — skips pinned entries, so a handler holding a
// *session can never have the store drop it mid-edit.
type ttlStore[T any] struct {
	cfg    storeConfig
	now    func() time.Time // injected for tests
	shards []*storeShard[T]
	size   atomic.Int64 // live entries across all shards

	created, expired, closed, evicted, rejected, throttled atomic.Int64
}

func newTTLStore[T any](cfg storeConfig) *ttlStore[T] {
	cfg = cfg.withDefaults()
	st := &ttlStore[T]{cfg: cfg, now: time.Now, shards: make([]*storeShard[T], cfg.shards)}
	for i := range st.shards {
		st.shards[i] = &storeShard[T]{
			m:   make(map[string]*entry[T]),
			sem: make(chan struct{}, cfg.queue),
		}
	}
	return st
}

func newStoreID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("rcserve: store id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// shardOf maps an id onto its lock shard (FNV-1a; ids are random hex, so any
// cheap hash spreads them evenly).
func (st *ttlStore[T]) shardOf(id string) *storeShard[T] {
	h := fnv.New32a()
	h.Write([]byte(id))
	return st.shards[h.Sum32()%uint32(len(st.shards))]
}

// expiredLocked is the one TTL comparison both the access path and the sweep
// use: an entry idle for the full ttl is expired. (The old store wrote the
// comparison twice — "> ttl" in get, "Before(cutoff)" in sweep — leaving the
// exact-ttl boundary to drift between the paths.)
func (st *ttlStore[T]) expiredLocked(e *entry[T], now time.Time) bool {
	return now.Sub(e.lastUsed) >= st.cfg.ttl
}

// create registers a new entry under a fresh id and returns it pinned; the
// caller must release it. If the store is at capacity the globally
// least-recently-used unpinned entry is evicted first.
func (st *ttlStore[T]) create(v T) *entry[T] {
	now := st.now()
	for st.size.Load() >= int64(st.cfg.max) {
		if !st.evictLRU() {
			break // every entry is pinned: admit over cap rather than drop live work
		}
	}
	e := &entry[T]{
		id: newStoreID(), val: v,
		created: now, lastUsed: now,
		refs:   1,
		tokens: st.cfg.editBurst, tokensAt: now,
	}
	sh := st.shardOf(e.id)
	sh.mu.Lock()
	st.sweepShardLocked(sh, now)
	sh.m[e.id] = e
	sh.mu.Unlock()
	st.size.Add(1)
	st.created.Add(1)
	return e
}

// insert registers a recovered entry under its persisted id, pinned. It
// reports false (and stores nothing) if the id is already live.
func (st *ttlStore[T]) insert(id string, v T) (*entry[T], bool) {
	now := st.now()
	e := &entry[T]{
		id: id, val: v,
		created: now, lastUsed: now,
		refs:   1,
		tokens: st.cfg.editBurst, tokensAt: now,
	}
	sh := st.shardOf(id)
	sh.mu.Lock()
	if _, exists := sh.m[id]; exists {
		sh.mu.Unlock()
		return nil, false
	}
	sh.m[id] = e
	sh.mu.Unlock()
	st.size.Add(1)
	st.created.Add(1)
	return e, true
}

// evictLRU drops the globally least-recently-used unpinned entry. It reports
// false when nothing is evictable (all entries pinned or the store empty).
func (st *ttlStore[T]) evictLRU() bool {
	var (
		victim      string
		victimShard *storeShard[T]
		victimUsed  time.Time
	)
	for _, sh := range st.shards {
		sh.mu.Lock()
		for id, e := range sh.m {
			if e.refs > 0 {
				continue
			}
			if victimShard == nil || e.lastUsed.Before(victimUsed) {
				victim, victimShard, victimUsed = id, sh, e.lastUsed
			}
		}
		sh.mu.Unlock()
	}
	if victimShard == nil {
		return false
	}
	victimShard.mu.Lock()
	defer victimShard.mu.Unlock()
	e, ok := victimShard.m[victim]
	if !ok || e.refs > 0 {
		return false // raced a get; caller retries or gives up
	}
	delete(victimShard.m, victim)
	st.size.Add(-1)
	st.evicted.Add(1)
	return true
}

// get returns the entry pinned and refreshes its idle clock; the caller must
// release it. A pinned entry never TTL-expires out from under its other
// holders: expiry only applies at refs == 0.
func (st *ttlStore[T]) get(id string) (*entry[T], bool) {
	sh := st.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[id]
	if !ok {
		return nil, false
	}
	now := st.now()
	if e.refs == 0 && st.expiredLocked(e, now) {
		delete(sh.m, id)
		st.size.Add(-1)
		st.expired.Add(1)
		return nil, false
	}
	e.lastUsed = now
	e.refs++
	return e, true
}

// release unpins an entry returned by create, insert or get.
func (st *ttlStore[T]) release(e *entry[T]) {
	sh := st.shardOf(e.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.refs <= 0 {
		panic("rcserve: store release without matching get")
	}
	e.refs--
}

// delete removes an entry by id. In-flight holders keep their pinned pointer
// (an explicit close while another request is mid-flight is the client's
// race to lose), but no new get will find it.
func (st *ttlStore[T]) delete(id string) bool {
	sh := st.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[id]; !ok {
		return false
	}
	delete(sh.m, id)
	st.size.Add(-1)
	st.closed.Add(1)
	return true
}

// admit takes an admission token from id's shard queue. It reports false —
// the 429 backpressure signal — when the shard already has queue-depth
// requests in flight; otherwise the returned func releases the token.
func (st *ttlStore[T]) admit(id string) (func(), bool) {
	sh := st.shardOf(id)
	select {
	case sh.sem <- struct{}{}:
		return func() { <-sh.sem }, true
	default:
		st.rejected.Add(1)
		return nil, false
	}
}

// allowEdits charges n edits against the entry's token bucket, reporting
// false — the 429 rate-limit signal — when the session is over its sustained
// edit rate. A zero-configured store never throttles.
func (st *ttlStore[T]) allowEdits(e *entry[T], n int) bool {
	if st.cfg.editRate <= 0 || n <= 0 {
		return true
	}
	sh := st.shardOf(e.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := st.now()
	e.tokens += st.cfg.editRate * now.Sub(e.tokensAt).Seconds()
	if e.tokens > st.cfg.editBurst {
		e.tokens = st.cfg.editBurst
	}
	e.tokensAt = now
	if e.tokens < float64(n) {
		st.throttled.Add(1)
		return false
	}
	e.tokens -= float64(n)
	return true
}

// sweep evicts every unpinned entry idle past the TTL across all shards; the
// janitors call it shard-locally, and create calls it opportunistically on
// the shard it inserts into.
func (st *ttlStore[T]) sweep() {
	now := st.now()
	for _, sh := range st.shards {
		sh.mu.Lock()
		st.sweepShardLocked(sh, now)
		sh.mu.Unlock()
	}
}

func (st *ttlStore[T]) sweepShardLocked(sh *storeShard[T], now time.Time) {
	for id, e := range sh.m {
		if e.refs == 0 && st.expiredLocked(e, now) {
			delete(sh.m, id)
			st.size.Add(-1)
			st.expired.Add(1)
		}
	}
}

// janitor runs one sweeper goroutine per shard until stop is closed, so a
// slow sweep of one shard never delays the others. janitor itself blocks
// until stop (main runs it on its own goroutine; tests close stop).
func (st *ttlStore[T]) janitor(stop <-chan struct{}) {
	interval := st.cfg.ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	var wg sync.WaitGroup
	for _, sh := range st.shards {
		wg.Add(1)
		go func(sh *storeShard[T]) {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					now := st.now()
					sh.mu.Lock()
					st.sweepShardLocked(sh, now)
					sh.mu.Unlock()
				case <-stop:
					return
				}
			}
		}(sh)
	}
	wg.Wait()
}

// ids snapshots the live entry ids (the snapshotter's iteration order).
func (st *ttlStore[T]) ids() []string {
	var out []string
	for _, sh := range st.shards {
		sh.mu.Lock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// active reports the live entry count — the sampled store-depth gauge.
func (st *ttlStore[T]) active() int { return int(st.size.Load()) }

// stats snapshots the counters for /healthz.
func (st *ttlStore[T]) stats() map[string]any {
	return map[string]any{
		"active":    st.active(),
		"shards":    len(st.shards),
		"created":   st.created.Load(),
		"expired":   st.expired.Load(),
		"closed":    st.closed.Load(),
		"evicted":   st.evicted.Load(),
		"rejected":  st.rejected.Load(),
		"throttled": st.throttled.Load(),
	}
}

// Package memo provides a sharded, bounded, deduplicating result cache for
// deterministic computations keyed by canonical scenario keys (see
// internal/canon).
//
// Three properties matter for the serving layer built on top of it:
//
//   - Bounded memory: each shard keeps an LRU list; inserting past the
//     capacity evicts the least recently used entry of that shard.
//   - Singleflight: concurrent Do calls for the same key run the computation
//     once; late arrivals join the in-flight call instead of recomputing.
//     The first caller, the leader, runs the tier lookup and the computation
//     on its own goroutine.
//   - Cooperative cancellation: the computation runs under a context that is
//     cancelled only when every request that joined the call has been
//     cancelled.  One impatient client cannot abort a result that other
//     clients are still waiting for, and a result nobody wants any more stops
//     burning CPU within one engine round.
//
// Errors are never cached: a failed computation (including a cancelled one)
// is retried by the next Do for the key.  A computation that panics is
// contained — the panic is delivered to every joined caller, the leader
// included, as an error.
//
// A Cache can carry a second level below the memory LRU (SetTier): on a
// memory miss the singleflight leader consults the tier — typically the
// disk store and fleet peer fetcher of internal/store — before computing,
// and writes fresh results through to it, so the full miss path is
// memory → disk → peers → compute with every stage collapsed to one probe
// per key by the same singleflight.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"ringsym/internal/obs"
)

// Process-wide service totals, summed across every Cache in the process and
// registered in the obs metric registry: per-instance Stats() keeps answering
// "how is this cache doing", while the Prometheus exposition and the event
// spine see the fleet-facing totals without any snapshot plumbing.  Each
// cache operation also emits a cache.* event when the bus is live; the events
// carry no payload, so the hot path allocates nothing.
var (
	totHits      = obs.NewCounter("ringsym_memo_hits_total", "Cache lookups served from a stored value, across all caches.")
	totMisses    = obs.NewCounter("ringsym_memo_misses_total", "Cache lookups that executed the computation, across all caches.")
	totDedups    = obs.NewCounter("ringsym_memo_dedups_total", "Cache lookups that joined an in-flight computation, across all caches.")
	totEvictions = obs.NewCounter("ringsym_memo_evictions_total", "Entries dropped by the LRU bound, across all caches.")
	totDiskHits  = obs.NewCounter("ringsym_memo_disk_hits_total", "Cache lookups served by the disk tier and promoted to memory, across all caches.")
	totPeerHits  = obs.NewCounter("ringsym_memo_peer_hits_total", "Cache lookups served by a fleet peer and promoted to memory, across all caches.")
)

// note records one service outcome on the process-wide counter and the event
// bus.  With no subscribers the event branch is a single atomic load.
func note(ctr *obs.Counter, t obs.Type) {
	ctr.Add(1)
	if obs.On() {
		obs.Emit(obs.Event{Type: t, Level: obs.LevelDebug})
	}
}

// Kind classifies how a Do call was served.
type Kind int8

const (
	// Miss: this call executed the computation.
	Miss Kind = iota
	// Hit: the value was already cached in memory.
	Hit
	// Dedup: the call joined a computation another caller had in flight.
	Dedup
	// DiskHit: the attached tier served the value from local disk; it was
	// promoted into memory without executing the computation.
	DiskHit
	// PeerHit: the attached tier fetched the value from a fleet peer; it
	// was promoted into memory without executing the computation.
	PeerHit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	case DiskHit:
		return "disk"
	case PeerHit:
		return "peer"
	default:
		return "miss"
	}
}

// Tier is a second cache level consulted between a memory miss and the
// computation: typically a disk store backed by a peer fetcher (see
// internal/store).  Load reports how it served the key (DiskHit or PeerHit)
// — any other Kind with ok true is treated as DiskHit for accounting.  Store
// is the write-through of a freshly computed value; it must not block
// correctness (a tier that drops writes only costs future recomputes).  Both
// methods are called from the cache's singleflight leader, so at most one
// Load/Store per key is in flight at a time.
type Tier[V any] interface {
	Load(ctx context.Context, key string) (V, Kind, bool)
	Store(key string, v V)
}

// tierBox wraps the interface so it can sit in an atomic.Pointer.
type tierBox[V any] struct{ t Tier[V] }

// Stats is a point-in-time snapshot of the cache counters.  The four
// service kinds partition the Do calls that resolved: every call is exactly
// one of Hits (memory), DiskHits/PeerHits (tier promotion), Dedups (joined
// an in-flight call) or Misses (executed the computation) — a tier
// promotion is never double-counted as a miss.
type Stats struct {
	// Hits counts Do calls served from the in-memory cache.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that executed the computation (including
	// computations that returned an error).
	Misses uint64 `json:"misses"`
	// Dedups counts Do calls that joined an in-flight computation.
	Dedups uint64 `json:"dedups"`
	// DiskHits counts Do calls served by the attached tier from local disk.
	DiskHits uint64 `json:"disk_hits"`
	// PeerHits counts Do calls served by the attached tier from a peer.
	PeerHits uint64 `json:"peer_hits"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
}

const defaultCapacity = 4096

// Cache is a sharded LRU + singleflight cache from string keys to values of
// type V.  The zero value is not usable; construct with New.
type Cache[V any] struct {
	shards [nShards]shard[V]
	seed   maphash.Seed
	cap    int // per shard
	tier   atomic.Pointer[tierBox[V]]

	hits, misses, dedups, evictions atomic.Uint64
	diskHits, peerHits              atomic.Uint64
}

// SetTier attaches (or, with nil, detaches) a second cache level consulted
// on memory misses.  Safe to call concurrently with Do; in-flight leaders
// keep the tier they started with.
func (c *Cache[V]) SetTier(t Tier[V]) {
	if t == nil {
		c.tier.Store(nil)
		return
	}
	c.tier.Store(&tierBox[V]{t: t})
}

func (c *Cache[V]) getTier() Tier[V] {
	if b := c.tier.Load(); b != nil {
		return b.t
	}
	return nil
}

const nShards = 16

type shard[V any] struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*call[V]
}

type entry[V any] struct {
	key string
	val V
}

// call is one in-flight computation plus the bookkeeping for cooperative
// cancellation: waiters counts the callers (leader included) still interested
// in the result; when it reaches zero before the computation finishes, the
// computation's context is cancelled.
type call[V any] struct {
	done     chan struct{}
	val      V
	err      error
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

// New returns a cache bounded to roughly the given total number of entries
// (<= 0 selects a default of 4096).  The bound is enforced per shard, so the
// precise ceiling is capacity rounded up to a multiple of the shard count.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	perShard := (capacity + nShards - 1) / nShards
	c := &Cache[V]{seed: maphash.MakeSeed(), cap: perShard}
	for i := range c.shards {
		c.shards[i] = shard[V]{
			entries:  make(map[string]*list.Element),
			lru:      list.New(),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)%nShards]
}

// Get returns the cached value for key without affecting the singleflight
// state.  It counts as a hit when present and updates the LRU recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		c.hits.Add(1)
		note(totHits, obs.CacheHit)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for key, computing it with fn at most once across
// concurrent callers.  The Kind reports how the call was served.  fn receives
// a context that is cancelled when every caller that joined this computation
// has been cancelled; its successful result is cached (evicting LRU entries
// past the capacity), its error is returned to every joined caller and not
// cached.  The leader runs fn on its own goroutine and returns fn's result:
// when its ctx is cancelled it withdraws its interest, as a joined caller
// does, but still returns only once fn has.  A joined caller whose ctx is
// cancelled returns ctx.Err() without waiting for fn.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, Kind, error) {
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		// Copy the value out under the lock: insertLocked updates entries
		// in place, so reading after Unlock would race with a concurrent
		// re-insert of the same key.
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		note(totHits, obs.CacheHit)
		return v, Hit, nil
	}
	if cl, ok := s.inflight[key]; ok {
		cl.waiters++
		s.mu.Unlock()
		c.dedups.Add(1)
		note(totDedups, obs.CacheDedup)
		v, err := c.wait(ctx, s, key, cl)
		return v, Dedup, err
	}
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.inflight[key] = cl
	s.mu.Unlock()
	tier := c.getTier()

	// The leader withdraws its interest on cancellation exactly as a joined
	// caller does, but keeps computing: the computation stops only when
	// every caller has gone, and the leader returns when it has.  A ctx
	// that is already done withdraws before computing, so the computation
	// starts cancelled instead of racing an asynchronous withdrawal.
	if ctx.Err() != nil {
		c.leave(s, key, cl)
	} else {
		defer context.AfterFunc(ctx, func() { c.leave(s, key, cl) })()
	}

	var v V
	var err error
	kind := Miss
	// Contain panics in the tier lookup and the computation: one bad
	// computation becomes an error for every joined caller, leader
	// included, instead of leaving done never closed.
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("memo: computation panicked: %v", r)
			}
		}()
		if tier != nil {
			if tv, tk, ok := tier.Load(cctx, key); ok {
				v = tv
				if tk == PeerHit {
					kind = PeerHit
				} else {
					kind = DiskHit
				}
				return
			}
		}
		v, err = fn(cctx)
	}()
	// Counting happens at resolution time, by how the call actually
	// resolved: a tier promotion is a disk/peer hit, never a miss — misses
	// count executed computations (successful or not), so the miss counter
	// remains the exact "work we could not avoid" gauge.
	switch {
	case err == nil && kind == DiskHit:
		c.diskHits.Add(1)
		totDiskHits.Add(1)
	case err == nil && kind == PeerHit:
		c.peerHits.Add(1)
		totPeerHits.Add(1)
	default:
		c.misses.Add(1)
		note(totMisses, obs.CacheMiss)
	}
	// Write a freshly computed value through to the tier before publishing
	// it, outside the shard lock (the tier does disk and network I/O).
	// Tier-served values are not re-offered: the disk tier already has
	// them, and peer hits were written through to the local store by the
	// tier itself.
	if err == nil && kind == Miss && tier != nil {
		tier.Store(key, v)
	}
	s.mu.Lock()
	cl.finished = true
	cl.val, cl.err = v, err
	// An abandoned call was already deregistered by its last caller and may
	// have been replaced by a fresh one; only remove our own entry.
	if s.inflight[key] == cl {
		delete(s.inflight, key)
	}
	if err == nil {
		c.insertLocked(s, key, v)
	}
	s.mu.Unlock()
	cancel()
	close(cl.done)
	return v, kind, err
}

// wait blocks a joined caller until the call completes or ctx is cancelled.
// A cancelled caller withdraws (see leave) and returns ctx.Err(), unless the
// computation has already finished, in which case it takes the result.
func (c *Cache[V]) wait(ctx context.Context, s *shard[V], key string, cl *call[V]) (V, error) {
	select {
	case <-cl.done:
	case <-ctx.Done():
		if c.leave(s, key, cl) {
			var zero V
			return zero, ctx.Err()
		}
		<-cl.done
	}
	return cl.val, cl.err
}

// leave withdraws one caller's interest in an unfinished call and reports
// whether it did; it reports false once the call has finished.  The last
// withdrawal cancels the computation and removes it from the in-flight
// table, so a later Do for the key starts a fresh computation instead of
// joining a dying one.
func (c *Cache[V]) leave(s *shard[V], key string, cl *call[V]) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl.finished {
		return false
	}
	cl.waiters--
	if cl.waiters == 0 {
		cl.cancel()
		if s.inflight[key] == cl {
			delete(s.inflight, key)
		}
	}
	return true
}

// insertLocked adds key→val to the shard (which must be locked) and evicts
// past the per-shard capacity.
func (c *Cache[V]) insertLocked(s *shard[V], key string, val V) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry[V]).val = val
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry[V]{key: key, val: val})
	for s.lru.Len() > c.cap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.entries, back.Value.(*entry[V]).key)
		c.evictions.Add(1)
		note(totEvictions, obs.CacheEvict)
	}
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		DiskHits:  c.diskHits.Load(),
		PeerHits:  c.peerHits.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

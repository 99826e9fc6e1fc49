package ndn

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// Concurrency-safe forwarding tables: the PIT and CS are sharded by a
// hash of the content name so packets for different names proceed in
// parallel, while all operations on one name serialise on its shard
// lock. Both planes' pipelines use ShardedPIT and LockedFIB; the
// simulator keeps the plain global-LRU CS (cs.go) for the paper's cache
// model, the live plane uses ShardedCS.

// numShards is the shard count for the PIT and CS. A small power of two:
// enough to keep unrelated names off each other's locks, small enough
// that whole-table walks (expiry, face death) stay cheap.
const numShards = 16

// shardIndex hashes a canonical name key to a shard (inline FNV-1a, no
// allocation).
func shardIndex(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
}

// AdmitOutcome classifies what a ShardedPIT did with one Interest.
type AdmitOutcome int

// Admit outcomes.
const (
	// PITNew: a fresh entry was created; the caller must resolve a route,
	// record it with SetOutFace, and forward the Interest (aborting the
	// entry if it cannot).
	PITNew AdmitOutcome = iota
	// PITAggregated: the Interest joined an existing pending entry.
	PITAggregated
	// PITRetransmit: the Interest joined an existing pending entry that
	// already holds a record from the same face with the same tag — the
	// requester's retransmission. The returned out-face (FaceNone while
	// the primary forward is still in flight) lets the caller re-send it
	// upstream.
	PITRetransmit
	// PITDuplicate: the entry already holds this nonce; drop.
	PITDuplicate
)

// pitShard is one lock-striped slice of the PIT.
type pitShard struct {
	mu      sync.Mutex
	entries map[string]*PITEntry
}

// ShardedPIT is a Pending Interest Table safe for concurrent use,
// sharded by name hash. Entries returned by Consume, ExpireBefore, and
// DropByOutFace are removed from the table before being returned, so the
// caller owns them exclusively.
type ShardedPIT struct {
	shards     [numShards]pitShard
	created    atomic.Uint64
	aggregated atomic.Uint64
	expired    atomic.Uint64
}

// NewShardedPIT creates an empty concurrent PIT.
func NewShardedPIT() *ShardedPIT {
	p := &ShardedPIT{}
	for i := range p.shards {
		p.shards[i].entries = make(map[string]*PITEntry)
	}
	return p
}

func (p *ShardedPIT) shard(key string) *pitShard { return &p.shards[shardIndex(key)] }

// Admit records one Interest: it aggregates onto a live entry (extending
// its lifetime, and reporting the entry's out-face for a retransmission),
// reports a duplicate nonce, or — replacing any expired leftover —
// creates a fresh entry whose out-face the caller must set once a route
// is resolved.
func (p *ShardedPIT) Admit(name names.Name, rec PITRecord, now, expires time.Time) (AdmitOutcome, FaceID) {
	k := name.Key()
	s := p.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		if e.Expires.After(now) {
			if e.HasNonce(rec.Nonce) {
				return PITDuplicate, FaceNone
			}
			outcome := PITAggregated
			if e.hasRequester(rec.InFace, rec.Tag) {
				outcome = PITRetransmit
			}
			e.Records = append(e.Records, rec)
			if expires.After(e.Expires) {
				e.Expires = expires
			}
			p.aggregated.Add(1)
			return outcome, e.OutFace
		}
		delete(s.entries, k) // expired leftover; replace
	}
	s.entries[k] = &PITEntry{Name: name, Records: []PITRecord{rec}, Expires: expires, OutFace: FaceNone}
	p.created.Add(1)
	return PITNew, FaceNone
}

// SetOutFace records the upstream face the primary Interest of name was
// forwarded to, reporting whether the entry still exists.
func (p *ShardedPIT) SetOutFace(name names.Name, face FaceID) bool {
	k := name.Key()
	s := p.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if ok {
		e.OutFace = face
	}
	return ok
}

// Consume removes and returns the entry for name — the router is about
// to satisfy (or abort) it.
func (p *ShardedPIT) Consume(name names.Name) (*PITEntry, bool) {
	k := name.Key()
	s := p.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if ok {
		delete(s.entries, k)
	}
	return e, ok
}

// DropByOutFace removes and returns every entry whose primary Interest
// was forwarded to face — called when that face dies.
func (p *ShardedPIT) DropByOutFace(face FaceID) []*PITEntry {
	var out []*PITEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if e.OutFace == face {
				out = append(out, e)
				delete(s.entries, k)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// ExpireBefore removes entries whose lifetime ended at or before now and
// returns them so callers can account for the timed-out requesters.
func (p *ShardedPIT) ExpireBefore(now time.Time) []*PITEntry {
	var out []*PITEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if !e.Expires.After(now) {
				out = append(out, e)
				delete(s.entries, k)
				p.expired.Add(1)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of pending entries.
func (p *ShardedPIT) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns entries created, Interests aggregated into existing
// entries, and entries expired.
func (p *ShardedPIT) Stats() (created, aggregated, expired uint64) {
	return p.created.Load(), p.aggregated.Load(), p.expired.Load()
}

// csShard is one lock-striped LRU slice of the content store.
type csShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	index    map[string]*list.Element
}

// ShardedCS is a content store safe for concurrent use: an LRU per
// shard, with the total capacity divided evenly across shards (recency
// is tracked per shard, an approximation of global LRU that never takes
// a global lock).
type ShardedCS struct {
	capacity int
	shards   [numShards]csShard
	hits     atomic.Uint64
	misses   atomic.Uint64
	evicted  atomic.Uint64
}

// NewShardedCS creates a concurrent content store holding at most
// capacity chunks in total. A zero or negative capacity disables caching
// (every Lookup misses).
func NewShardedCS(capacity int) *ShardedCS {
	c := &ShardedCS{capacity: capacity}
	per := capacity / numShards
	if per <= 0 && capacity > 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = csShard{capacity: per, ll: list.New(), index: make(map[string]*list.Element)}
	}
	return c
}

func (c *ShardedCS) shard(key string) *csShard { return &c.shards[shardIndex(key)] }

// Insert caches a chunk, evicting its shard's least recently used entry
// when the shard is full. Re-inserting an existing name refreshes its
// recency.
func (c *ShardedCS) Insert(content *core.Content) {
	if c.capacity <= 0 {
		return
	}
	k := content.Meta.Name.Key()
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[k]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*csItem).content = content
		return
	}
	el := s.ll.PushFront(&csItem{key: k, content: content})
	s.index[k] = el
	if s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.index, oldest.Value.(*csItem).key)
		c.evicted.Add(1)
	}
}

// Lookup returns the cached chunk for name, refreshing its recency.
func (c *ShardedCS) Lookup(name names.Name) (*core.Content, bool) {
	k := name.Key()
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.index[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(el)
	content := el.Value.(*csItem).content
	s.mu.Unlock()
	c.hits.Add(1)
	return content, true
}

// Contains reports whether name is cached without touching recency or
// hit/miss statistics.
func (c *ShardedCS) Contains(name names.Name) bool {
	k := name.Key()
	s := c.shard(k)
	s.mu.Lock()
	_, ok := s.index[k]
	s.mu.Unlock()
	return ok
}

// Len returns the number of cached chunks.
func (c *ShardedCS) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Names returns the cached content names in unspecified order, without
// touching recency or hit/miss statistics. Shards are snapshotted one at
// a time, so the result is a consistent view only on a quiescent store —
// exactly the condition under which the conformance oracle compares
// end-state cache contents across enforcement planes.
func (c *ShardedCS) Names() []string {
	var out []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.index {
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	return out
}

// Capacity returns the configured total maximum.
func (c *ShardedCS) Capacity() int { return c.capacity }

// Stats returns hits, misses, and evictions.
func (c *ShardedCS) Stats() (hits, misses, evicted uint64) {
	return c.hits.Load(), c.misses.Load(), c.evicted.Load()
}

// LockedFIB is a FIB safe for concurrent use: route lookups (the per
// packet operation) take a read lock, route updates (rare) a write lock.
type LockedFIB struct {
	mu  sync.RWMutex
	fib *FIB
}

// NewLockedFIB creates an empty concurrent FIB.
func NewLockedFIB() *LockedFIB { return &LockedFIB{fib: NewFIB()} }

// Insert adds (or replaces) a route for prefix via face.
func (f *LockedFIB) Insert(prefix names.Name, face FaceID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fib.Insert(prefix, face)
}

// Remove deletes the route for an exact prefix, reporting whether it
// existed.
func (f *LockedFIB) Remove(prefix names.Name) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fib.Remove(prefix)
}

// RemoveFace deletes every route pointing at face and returns how many
// were removed.
func (f *LockedFIB) RemoveFace(face FaceID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fib.RemoveFace(face)
}

// Lookup returns the face for the longest registered prefix of name.
func (f *LockedFIB) Lookup(name names.Name) (FaceID, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.fib.Lookup(name)
}

// Len returns the number of routes.
func (f *LockedFIB) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.fib.Len()
}

package service

import (
	"container/list"
	"sync"
	"time"
)

// store is the one container behind every cache the service keeps — counted
// results, prepared queries, per-shard executors: a bounded LRU over plan
// keys (plan.key) with an optional TTL, an optional hook that runs exactly
// once for every value the store lets go of, and each entry tagged with the
// version vector it was built against, so "drop what the registry no longer
// serves" is one walk (dropStale) that parses nothing. A store with capacity
// <= 0 holds nothing: put hands the value straight back.
type store[V any] struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration // 0 = entries never expire
	onEvict func(V)       // nil = nothing to release
	now     func() time.Time
	ll      *list.List // front = most recently used
	m       map[string]*list.Element
}

type storeEntry[V any] struct {
	key      string
	val      V
	versions map[string]uint64
	at       time.Time
}

func newStore[V any](capacity int, ttl time.Duration, onEvict func(V)) *store[V] {
	return &store[V]{
		cap:     capacity,
		ttl:     ttl,
		onEvict: onEvict,
		now:     time.Now,
		ll:      list.New(),
		m:       make(map[string]*list.Element),
	}
}

// unlink removes el and returns its value for release.
func (s *store[V]) unlink(el *list.Element) V {
	e := s.ll.Remove(el).(*storeEntry[V])
	delete(s.m, e.key)
	return e.val
}

// release runs onEvict for values a method unlinked. Every method calls it
// after unlocking: the hook is caller code (ShardExec.Close takes catalog
// locks) and must not run under the store's mutex.
func (s *store[V]) release(vals ...V) {
	if s.onEvict != nil {
		for _, v := range vals {
			s.onEvict(v)
		}
	}
}

// get returns the value under key, if present and fresh, and marks it most
// recently used.
func (s *store[V]) get(key string) (v V, ok bool) {
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return v, false
	}
	e := el.Value.(*storeEntry[V])
	if s.ttl > 0 && s.now().Sub(e.at) > s.ttl {
		expired := s.unlink(el)
		s.mu.Unlock()
		s.release(expired)
		return v, false
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()
	return e.val, true
}

// put stores val under key unless the key is already resident, and returns
// the resident value: a caller that built val outside the lock and lost the
// race gets the winner back, and its own val is released through onEvict.
// Inserting over capacity evicts the least recently used entry.
func (s *store[V]) put(key string, versions map[string]uint64, val V) V {
	if s.cap <= 0 {
		return val
	}
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		resident := el.Value.(*storeEntry[V]).val
		s.mu.Unlock()
		s.release(val)
		return resident
	}
	s.m[key] = s.ll.PushFront(&storeEntry[V]{key: key, val: val, versions: versions, at: s.now()})
	var evicted []V
	for s.ll.Len() > s.cap {
		evicted = append(evicted, s.unlink(s.ll.Back()))
	}
	s.mu.Unlock()
	s.release(evicted...)
	return val
}

// dropStale evicts every entry built against a version vector that serves
// rejects — the registry's Serves: some table of the vector was replaced.
func (s *store[V]) dropStale(serves func(versions map[string]uint64) bool) {
	s.drop(func(e *storeEntry[V]) bool { return !serves(e.versions) })
}

// dropIf evicts every entry whose value gone reports true for.
func (s *store[V]) dropIf(gone func(V) bool) {
	s.drop(func(e *storeEntry[V]) bool { return gone(e.val) })
}

func (s *store[V]) drop(gone func(*storeEntry[V]) bool) {
	var evicted []V
	s.mu.Lock()
	for el := s.ll.Front(); el != nil; {
		next := el.Next()
		if gone(el.Value.(*storeEntry[V])) {
			evicted = append(evicted, s.unlink(el))
		}
		el = next
	}
	s.mu.Unlock()
	s.release(evicted...)
}

// len reports the number of resident entries (fresh or not).
func (s *store[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

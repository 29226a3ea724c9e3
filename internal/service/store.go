package service

import (
	"container/list"
	"sync"
	"time"
)

// store is the one container behind every cache the service keeps — counted
// results, prepared queries, parsed query shapes, and the coordinator's
// censuses: a
// bounded LRU over string keys with an optional TTL, each entry tagged with
// the version vector it was built against (nil when no data version can
// stale it), so "drop what the registry no longer serves" is one walk
// (dropStale) that parses nothing. No value owns anything that
// needs releasing, so letting go of one is just unlinking it. A store with
// capacity <= 0 holds nothing: put hands the value straight back.
type store[V any] struct {
	mu  sync.Mutex
	cap int
	ttl time.Duration // 0 = entries never expire
	now func() time.Time
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type storeEntry[V any] struct {
	key      string
	val      V
	versions map[string]uint64
	at       time.Time
}

func newStore[V any](capacity int, ttl time.Duration) *store[V] {
	return &store[V]{
		cap: capacity,
		ttl: ttl,
		now: time.Now,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
	}
}

// unlink removes el.
func (s *store[V]) unlink(el *list.Element) {
	delete(s.m, s.ll.Remove(el).(*storeEntry[V]).key)
}

// get returns the value under key, if present and fresh, and marks it most
// recently used.
func (s *store[V]) get(key string) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return v, false
	}
	e := el.Value.(*storeEntry[V])
	if s.ttl > 0 && s.now().Sub(e.at) > s.ttl {
		s.unlink(el)
		return v, false
	}
	s.ll.MoveToFront(el)
	return e.val, true
}

// put stores val under key unless the key is already resident, and returns
// the resident value: a caller that built val outside the lock and lost the
// race gets the winner back and drops its own. Inserting over capacity
// evicts the least recently used entry.
func (s *store[V]) put(key string, versions map[string]uint64, val V) V {
	if s.cap <= 0 {
		return val
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*storeEntry[V]).val
	}
	s.m[key] = s.ll.PushFront(&storeEntry[V]{key: key, val: val, versions: versions, at: s.now()})
	for s.ll.Len() > s.cap {
		s.unlink(s.ll.Back())
	}
	return val
}

// drop evicts the entry under key, if resident.
func (s *store[V]) drop(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.unlink(el)
	}
}

// dropStale evicts every entry built against a version vector that serves
// rejects — the registry's Serves: some table of the vector was replaced.
func (s *store[V]) dropStale(serves func(versions map[string]uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.ll.Front(); el != nil; {
		next := el.Next()
		if !serves(el.Value.(*storeEntry[V]).versions) {
			s.unlink(el)
		}
		el = next
	}
}

// len reports the number of resident entries (fresh or not).
func (s *store[V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

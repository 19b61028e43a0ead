package server

import "sync"

// Server mirrors the query server's catalog lock.
type Server struct {
	mu        sync.RWMutex
	relations int
}

// Session mirrors a session's own lock.
type Session struct {
	mu       sync.Mutex
	executed int
}

// ExecuteUnderCatalog takes the catalog lock, then the session's, the
// order an execute follows. Its edge closes a cycle with
// ExpireThenDrop below; the report anchors on this (earliest) edge.
func ExecuteUnderCatalog(s *Server, sess *Session) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess.mu.Lock() // want lock-order
	defer sess.mu.Unlock()
	sess.executed += s.relations
}

// ExpireThenDrop takes the session's lock, then the catalog's: the
// opposite order, which can deadlock against a writer queued on the
// catalog lock between the two readers.
func ExpireThenDrop(s *Server, sess *Session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.mu.Lock()
	s.relations--
	s.mu.Unlock()
}

// ExecuteThenCount is clean: it releases the session before touching the
// catalog.
func ExecuteThenCount(s *Server, sess *Session) {
	sess.mu.Lock()
	sess.executed++
	sess.mu.Unlock()
	s.mu.RLock()
	_ = s.relations
	s.mu.RUnlock()
}

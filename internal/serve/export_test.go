package serve

import "sync"

// Exports for the tier-parity tests in package serve_test, which drive
// the gateway as well and so cannot live in this package (gate imports
// serve).
var PostJSON, Get = postJSON, get

// NewBlocking returns a daemon over the blocking fake runner: started
// receives once per computation begun, and every computation waits
// until release is called (idempotent).
func NewBlocking(cfg Config) (s *Server, started <-chan struct{}, release func()) {
	fake := &fakeRunner{started: make(chan struct{}, 8), release: make(chan struct{})}
	var once sync.Once
	return newServer(cfg, fake), fake.started, func() { once.Do(func() { close(fake.release) }) }
}

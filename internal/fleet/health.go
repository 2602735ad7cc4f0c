package fleet

import (
	"sync"
	"time"
)

// ShardState is one shard's view in the monitor, and its entry in the
// gateway's /healthz body.
type ShardState struct {
	Target string `json:"target"`
	// Up is false while the shard is ejected from the ring.
	Up bool `json:"up"`
	// Draining marks a shard that answered its probe with a lame-duck
	// refusal (503 from /healthz): it still finishes admitted work but
	// must not receive new fan-outs, so it is ejected like a dead one
	// and re-probed until it either disappears or comes back.
	Draining bool `json:"draining"`
	// Ejections counts how many times the shard has been ejected.
	Ejections uint64 `json:"ejections"`
	// LastErr is the most recent probe or request failure ("" when up).
	LastErr string `json:"last_err,omitempty"`
}

// ErrDraining is the sentinel probe error for a lame-duck shard.
type drainingError struct{}

func (drainingError) Error() string { return "draining" }

// ErrDraining is returned by probes that reached the shard but found it
// refusing new work (healthz 503). The monitor ejects it like a dead
// shard but records the distinction.
var ErrDraining error = drainingError{}

// Monitor tracks shard health and keeps the ring's membership in sync:
// a failing or draining shard is ejected (removed from the ring, so its
// keys re-home to successors) and re-probed on an interval until it
// recovers, at which point it rejoins and reclaims its keyspace.
type Monitor struct {
	ring  *Ring
	probe func(target string) error

	mu     sync.Mutex
	shards map[string]*ShardState
	order  []string

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewMonitor wraps ring with health tracking over targets. probe checks
// one shard: nil = healthy, ErrDraining = reachable but lame-duck, any
// other error = down. All targets start as members of the ring and
// healthy; call Check or Start to begin probing.
func NewMonitor(ring *Ring, targets []string, probe func(target string) error) *Monitor {
	m := &Monitor{
		ring:   ring,
		probe:  probe,
		shards: make(map[string]*ShardState, len(targets)),
		stop:   make(chan struct{}),
	}
	for _, t := range targets {
		ring.Add(t)
		m.shards[t] = &ShardState{Target: t, Up: true}
		m.order = append(m.order, t)
	}
	return m
}

// Ring returns the monitored ring.
func (m *Monitor) Ring() *Ring { return m.ring }

// MarkDown ejects a shard on request-path evidence (a transport error
// or lame-duck refusal seen by a live request, faster than the next
// probe tick). Idempotent. Returns true when this call performed the
// ejection.
func (m *Monitor) MarkDown(target string, err error) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.shards[target]
	if s == nil || !s.Up {
		return false
	}
	s.Up = false
	s.Draining = err == ErrDraining
	s.Ejections++
	if err != nil {
		s.LastErr = err.Error()
	}
	m.ring.Remove(target)
	return true
}

// markUp rejoins a recovered shard.
func (m *Monitor) markUp(target string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.shards[target]
	if s == nil || s.Up {
		return false
	}
	s.Up = true
	s.Draining = false
	s.LastErr = ""
	m.ring.Add(target)
	return true
}

// Check probes every shard once, synchronously, updating membership.
// Call it before serving to eject shards that are down at start.
func (m *Monitor) Check() {
	m.mu.Lock()
	targets := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, t := range targets {
		err := m.probe(t)
		switch {
		case err == nil:
			m.markUp(t)
		default:
			m.MarkDown(t, err)
			m.mu.Lock()
			if s := m.shards[t]; s != nil && !s.Up {
				s.Draining = err == ErrDraining
				s.LastErr = err.Error()
			}
			m.mu.Unlock()
		}
	}
}

// Start launches the background re-probe loop with the given interval.
// Stop terminates it.
func (m *Monitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Check()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// Snapshot returns every shard's state in the fixed target order.
func (m *Monitor) Snapshot() []ShardState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ShardState, 0, len(m.order))
	for _, t := range m.order {
		out = append(out, *m.shards[t])
	}
	return out
}

// UpCount returns how many shards are currently in the ring.
func (m *Monitor) UpCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.shards {
		if s.Up {
			n++
		}
	}
	return n
}

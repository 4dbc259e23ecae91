package exp

import (
	"sync"
	"sync/atomic"

	"branchconf/internal/artifact"
)

// SessionPool shares Sessions across requests in a resident process: every
// request naming the same Config gets the same *Session, so their suite
// passes coalesce onto the session's single-flight pass cache — two
// concurrent clients asking for the same (experiment, benchmark, budget,
// config) trigger exactly one simulation. Distinct Configs get distinct
// sessions (their results legitimately differ), bounded in number by an
// LRU over configurations so a hostile or merely varied request mix cannot
// pin unbounded state.
//
// The pool is safe for concurrent use.
type SessionPool struct {
	mu       sync.Mutex
	sessions map[Config]*pooledSession
	clock    uint64
	max      int    // max resident sessions (<=0: DefaultMaxSessions)
	passBond uint64 // per-session pass-cache byte bound (0 = unbounded)

	evictions atomic.Uint64
	// retired accumulates the pass-cache counters of evicted sessions so
	// pool-wide stats never move backwards. Guarded by mu.
	retired artifact.TierStats
}

type pooledSession struct {
	s       *Session
	lastUse uint64
}

// DefaultMaxSessions bounds resident sessions when a pool is built with
// max <= 0. Distinct configurations are rare in practice (budget sweeps,
// A/B engine switches), so a handful covers real mixes.
const DefaultMaxSessions = 8

// NewSessionPool returns a pool holding at most max sessions (<=0 uses
// DefaultMaxSessions), each with the given pass-cache byte bound
// (0 = unbounded).
func NewSessionPool(max int, passBound uint64) *SessionPool {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &SessionPool{
		sessions: make(map[Config]*pooledSession),
		max:      max,
		passBond: passBound,
	}
}

// Get returns the shared session for cfg, creating it on first use and
// evicting the least-recently-used session beyond the pool bound.
func (p *SessionPool) Get(cfg Config) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock++
	if ps := p.sessions[cfg]; ps != nil {
		ps.lastUse = p.clock
		return ps.s
	}
	s := NewSession(cfg)
	s.SetPassBound(p.passBond)
	p.sessions[cfg] = &pooledSession{s: s, lastUse: p.clock}
	for len(p.sessions) > p.max {
		p.evictOldestLocked()
	}
	return s
}

// evictOldestLocked retires the least-recently-used session, folding its
// pass-cache counters into the pool's retired totals.
func (p *SessionPool) evictOldestLocked() {
	var (
		victim Config
		oldest uint64
		found  bool
	)
	for cfg, ps := range p.sessions {
		if !found || ps.lastUse < oldest {
			found, oldest, victim = true, ps.lastUse, cfg
		}
	}
	if !found {
		return
	}
	p.retired = addPassStats(p.retired, p.sessions[victim].s.Stats())
	delete(p.sessions, victim)
	p.evictions.Add(1)
}

// Trim retires every resident session, releasing their pass caches. The
// memory-pressure hook: a resident process under heap pressure calls this
// (repopulation is warm — the annotated/bucket/curve/model/disk tiers
// below the pass cache survive, so re-deriving a pass costs a replay, not
// a simulation).
func (p *SessionPool) Trim() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.sessions) > 0 {
		p.evictOldestLocked()
	}
}

// Len reports the resident session count.
func (p *SessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// Stats aggregates pass-cache claims (hits, misses, coalesced) across
// resident and retired sessions, plus the pool's session evictions.
func (p *SessionPool) Stats() (pass artifact.TierStats, evictions uint64) {
	p.mu.Lock()
	pass = p.retired
	for _, ps := range p.sessions {
		pass = addPassStats(pass, ps.s.Stats())
	}
	p.mu.Unlock()
	return pass, p.evictions.Load()
}

// addPassStats sums two sessions' pass-cache claim counters.
func addPassStats(a, b artifact.TierStats) artifact.TierStats {
	return artifact.TierStats{
		Hits:      a.Hits + b.Hits,
		Misses:    a.Misses + b.Misses,
		Coalesced: a.Coalesced + b.Coalesced,
	}
}

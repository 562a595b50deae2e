// Package session gives each tenant of the mitigation service its own
// persistent predictive-mitigation state and a cumulative leakage
// account, enforced as a quantitative budget at admission.
//
// The paper's §7 mitigation is stateful per principal: prediction
// epochs, penalty doubling, and the log-shaped leakage bound
//
//	|L↑| · log2(K+1) · (1 + log2 T)  bits
//
// all accumulate across a client's interactions. A service that resets
// this state between requests (or shares it between unrelated clients)
// either loses the bound or lets tenants pollute each other's
// schedules. The Manager here keys that state by tenant ID: every
// request runs against its tenant's own mitigation.State (spliced into
// a shared server.Pool via HandleWith), and after every request the
// tenant's cumulative elapsed time T and mitigation count K advance,
// moving its leakage account up the log curve.
//
// Admission is where the budget bites: Begin denies a request with a
// typed *BudgetError once the tenant's accumulated bound has reached
// the configured budget, so the quantified leak is an enforceable
// resource, not an offline report. Counting every completed mitigation
// record toward K (rather than only secret-dependent ones) makes the
// account conservative — the service layer cannot see which mitigate
// sites the relevant projection of §7 would keep, so it assumes all of
// them leak.
//
// Sessions live in a sharded LRU with idle-TTL expiry, so an unbounded
// tenant population cannot exhaust memory: stale tenants age out (and
// their budget resets with their state — the epoch schedule restarts
// from a fresh session), and the LRU cap bounds the worst case.
//
// Concurrency: a session's lock is held from Begin until
// Commit/Abort, serializing same-tenant requests; that is what makes
// splicing one mitigation.State through a concurrent pool safe, and it
// matches the semantics of a tenant's requests forming one serial
// epoch sequence. Distinct tenants proceed in parallel (bounded only
// by the shard count of the underlying pool).
package session

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/mitigation"
	"repro/internal/obs"
)

// ErrBudgetExceeded is the sentinel matched by errors.Is for budget
// denials; the concrete error is always a *BudgetError.
var ErrBudgetExceeded = errors.New("session: leakage budget exceeded")

// ErrBadOptions is returned by NewManager on invalid configuration.
var ErrBadOptions = errors.New("session: invalid options")

// BudgetError reports a request denied at admission because the
// tenant's cumulative leakage bound reached its budget.
type BudgetError struct {
	// Tenant is the denied tenant ID.
	Tenant string
	// SpentBits is the tenant's accumulated leakage bound; BudgetBits
	// the configured cap it reached.
	SpentBits, BudgetBits float64
	// RetryAfter is how long until the tenant's session expires and its
	// account resets (0 when the session never expires — the budget is
	// then permanent).
	RetryAfter time.Duration
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("session: tenant %q leakage budget exceeded (%.2f of %.2f bits)",
		e.Tenant, e.SpentBits, e.BudgetBits)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) work.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Options configure a Manager.
type Options struct {
	// Lat is the security lattice of the served program; required. It
	// sizes each session's per-level miss counters and the closure term
	// of the leakage bound.
	Lat lattice.Lattice
	// Scheme and Policy configure each session's prediction state,
	// with the same defaults as internal/mitigation (FastDoubling,
	// PerLevel).
	Scheme mitigation.Scheme
	Policy mitigation.Policy
	// ClosureSize is the |L↑| term of the leakage bound: the number of
	// levels an observer at the bottom of the lattice can see mitigated
	// timing at. Default Lat.Size()-1 (everything above bottom) — the
	// conservative service-layer choice, since the manager cannot see
	// which levels a particular program actually mitigates.
	ClosureSize int
	// BudgetBits caps each tenant's cumulative leakage bound; a tenant
	// whose account has reached it is denied at Begin until its session
	// expires. 0 disables enforcement (accounting still runs).
	BudgetBits float64
	// TTL expires sessions idle longer than this; expiry resets the
	// tenant's mitigation state and leakage account. 0 never expires.
	TTL time.Duration
	// MaxSessions bounds the live-session count; admitting a tenant
	// past the bound evicts the least-recently-used idle session.
	// Default 65536.
	MaxSessions int
	// Shards is the lock-striping factor of the session table; default
	// 16.
	Shards int
	// Metrics, when non-nil, receives session lifecycle and budget
	// counters.
	Metrics *obs.Metrics
	// Now is the clock, injectable for deterministic TTL tests; default
	// time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.ClosureSize == 0 {
		o.ClosureSize = o.Lat.Size() - 1
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 65536
	}
	if o.Shards == 0 {
		o.Shards = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

func (o Options) validate() error {
	if o.Lat == nil {
		return fmt.Errorf("%w: lattice required", ErrBadOptions)
	}
	if o.BudgetBits < 0 {
		return fmt.Errorf("%w: BudgetBits must be ≥ 0", ErrBadOptions)
	}
	if o.TTL < 0 {
		return fmt.Errorf("%w: TTL must be ≥ 0", ErrBadOptions)
	}
	if o.MaxSessions < 0 {
		return fmt.Errorf("%w: MaxSessions must be ≥ 0", ErrBadOptions)
	}
	if o.Shards < 0 {
		return fmt.Errorf("%w: Shards must be ≥ 0", ErrBadOptions)
	}
	if o.ClosureSize < 0 {
		return fmt.Errorf("%w: ClosureSize must be ≥ 0", ErrBadOptions)
	}
	return nil
}

// session is one tenant's state. The shard lock guards the table
// fields (busy, pins, lastSeen, list links); mu serializes the
// tenant's requests and guards the accounting fields. A session that
// leaves the table with no ticket, waiter or pin is recycled for the
// next tenant admitted on its shard (see Begin).
type session struct {
	tenant string
	// tk is the session's one ticket, handed out by every Begin. Its
	// fields are set when the session is created and never change, so
	// a holder's Commit or Abort never races the next Begin.
	tk Ticket

	// Table state, guarded by shard.mu: LRU links (ordered by Begin),
	// idle-list links (ordered by check-in), busy counts tickets and
	// waiters, pins counts Peeks in progress.
	prev, next         *session
	idlePrev, idleNext *session
	busy, pins         int
	lastSeen           time.Time

	// mu is held from Begin to Commit/Abort: one request per tenant at
	// a time, which is exactly the serial epoch sequence of §7.
	mu      sync.Mutex
	mit     *mitigation.State
	epoch   int
	cumTime uint64 // T: total simulated cycles across the session
	cumMits int    // K: total completed mitigation records
	denials uint64
}

// shard is one stripe of the session table with two intrusive lists:
// the LRU list of every session (head = most recently begun) and the
// idle list of the sessions with busy == 0 (head = most recently
// checked in). Sessions join the idle list at check-in and stamp
// lastSeen then, so with a clock that never goes backwards the idle
// list is ordered by lastSeen and the TTL sweep stops at the first
// session that has not expired.
type shard struct {
	mu                 sync.Mutex
	byID               map[string]*session
	head, tail         *session
	idleHead, idleTail *session
}

func (s *shard) pushFront(e *session) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) remove(e *session) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveFront(e *session) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}

// idlePush puts a session that just checked in at the idle list's
// head.
func (s *shard) idlePush(e *session) {
	e.idlePrev = nil
	e.idleNext = s.idleHead
	if s.idleHead != nil {
		s.idleHead.idlePrev = e
	}
	s.idleHead = e
	if s.idleTail == nil {
		s.idleTail = e
	}
}

// idleRemove takes a session off the idle list.
func (s *shard) idleRemove(e *session) {
	if e.idlePrev != nil {
		e.idlePrev.idleNext = e.idleNext
	} else {
		s.idleHead = e.idleNext
	}
	if e.idleNext != nil {
		e.idleNext.idlePrev = e.idlePrev
	} else {
		s.idleTail = e.idlePrev
	}
	e.idlePrev, e.idleNext = nil, nil
}

// Manager is the sharded session table. Safe for concurrent use.
type Manager struct {
	opts     Options
	shards   []*shard
	perShard int // LRU cap per shard
}

// NewManager constructs a session manager.
func NewManager(opts Options) (*Manager, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	m := &Manager{opts: opts}
	m.perShard = (opts.MaxSessions + opts.Shards - 1) / opts.Shards
	if m.perShard < 1 {
		m.perShard = 1
	}
	for i := 0; i < opts.Shards; i++ {
		m.shards = append(m.shards, &shard{byID: make(map[string]*session)})
	}
	return m, nil
}

// BudgetBits returns the configured per-tenant budget (0 = unlimited).
func (m *Manager) BudgetBits() float64 { return m.opts.BudgetBits }

// TTL returns the configured idle expiry.
func (m *Manager) TTL() time.Duration { return m.opts.TTL }

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n += len(s.byID)
		s.mu.Unlock()
	}
	return n
}

// shardFor stripes tenants with FNV-1a: a fixed hash, so shard
// assignment (and with it LRU eviction order) is reproducible across
// runs — the session layer adds no nondeterminism to experiments.
func (m *Manager) shardFor(tenant string) *shard {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return m.shards[h.Sum64()%uint64(len(m.shards))]
}

// spentBits is the tenant's accumulated §7 bound. Caller holds e.mu.
func (m *Manager) spentBits(e *session) float64 {
	return leakage.Bound(m.opts.ClosureSize, e.cumMits, e.cumTime)
}

// expired reports whether an idle session has outlived the TTL.
// Caller holds the shard lock.
func (m *Manager) expired(e *session, now time.Time) bool {
	return m.opts.TTL > 0 && e.busy == 0 && e.pins == 0 && now.Sub(e.lastSeen) >= m.opts.TTL
}

// Ticket is one admitted request: the right to run against the
// tenant's mitigation state. Exactly one of Commit or Abort must be
// called; until then the tenant's session lock is held and further
// requests from the same tenant block. A ticket must not be used after
// its Commit or Abort: the session it belongs to may by then serve
// another request of the tenant, or, once evicted, another tenant.
type Ticket struct {
	m *Manager
	s *shard
	e *session
}

// Tenant returns the session's tenant ID.
func (t *Ticket) Tenant() string { return t.e.tenant }

// Mit returns the tenant's persistent mitigation state, to be spliced
// into the serving engine (Pool.HandleWith / Server.HandleWith).
func (t *Ticket) Mit() *mitigation.State { return t.e.mit }

// Epoch returns the session's request epoch (0 for the first request).
func (t *Ticket) Epoch() int { return t.e.epoch }

// SpentBits returns the leakage bound accumulated before this request.
func (t *Ticket) SpentBits() float64 { return t.m.spentBits(t.e) }

// Info is an accounting snapshot of one session.
type Info struct {
	Tenant string
	// Epoch counts committed requests.
	Epoch int
	// SpentBits is the cumulative §7 leakage bound; CumTime (T, cycles)
	// and CumMitigations (K) are its inputs.
	SpentBits      float64
	CumTime        uint64
	CumMitigations int
	// Denials counts budget rejections.
	Denials uint64
}

// info snapshots a session's account. Caller holds e.mu.
func (m *Manager) info(e *session) Info {
	return Info{
		Tenant:         e.tenant,
		Epoch:          e.epoch,
		SpentBits:      m.spentBits(e),
		CumTime:        e.cumTime,
		CumMitigations: e.cumMits,
		Denials:        e.denials,
	}
}

// Commit records a served request — elapsed simulated cycles and
// completed mitigation records — advancing the tenant's epoch and
// leakage account, and releases the session. It returns the updated
// accounting snapshot (the response's leakage_bits field).
func (t *Ticket) Commit(elapsed uint64, mitigations int) Info {
	e := t.e
	e.cumTime += elapsed
	e.cumMits += mitigations
	e.epoch++
	info := t.m.info(e)
	e.mu.Unlock()
	t.m.checkIn(t.s, e)
	return info
}

// Abort releases the session without advancing its account — the
// request failed or was never run, and a failed run does not update
// mitigation state either, so the session is exactly as admitted.
func (t *Ticket) Abort() {
	t.e.mu.Unlock()
	t.m.checkIn(t.s, t.e)
}

// checkIn drops a session's busy mark and stamps its idle clock; the
// last holder to leave puts it at the idle list's head.
func (m *Manager) checkIn(s *shard, e *session) {
	s.mu.Lock()
	e.busy--
	e.lastSeen = m.opts.Now()
	if e.busy == 0 {
		s.idlePush(e)
	}
	s.mu.Unlock()
}

// Begin admits one request for a tenant: it finds or creates the
// session, waits for the tenant's previous request to finish, and
// checks the leakage budget. On success the returned Ticket holds the
// session locked; the caller must Commit or Abort it. A budget denial
// returns a *BudgetError (errors.Is ErrBudgetExceeded).
//
// Admission takes constant time and, in steady state, allocates
// nothing: a new tenant takes over the session evicted to make room
// for it, mitigation state included, and the ticket is part of the
// session.
func (m *Manager) Begin(tenant string) (*Ticket, error) {
	if tenant == "" {
		return nil, fmt.Errorf("session: empty tenant ID")
	}
	s := m.shardFor(tenant)
	now := m.opts.Now()

	s.mu.Lock()
	e, ok := s.byID[tenant]
	var spare *session
	if ok && m.expired(e, now) {
		// Idle past the TTL: the session ages out now and the tenant
		// starts fresh — new mitigation state, empty leakage account.
		m.drop(s, e, true)
		spare, ok = e, false
	}
	if !ok {
		if v := m.evict(s, now); v != nil {
			spare = v
		}
		e = spare
		if e == nil {
			e = &session{mit: mitigation.NewState(m.opts.Lat, m.opts.Scheme, m.opts.Policy)}
			e.tk = Ticket{m: m, s: s, e: e}
		} else {
			e.mit.Reset()
			e.epoch, e.cumTime, e.cumMits, e.denials = 0, 0, 0, 0
		}
		e.tenant = tenant
		e.lastSeen = now
		s.byID[tenant] = e
		s.pushFront(e)
		if m.opts.Metrics != nil {
			m.opts.Metrics.AddSessionCreated()
		}
	} else {
		s.moveFront(e)
		if e.busy == 0 {
			s.idleRemove(e)
		}
		e.lastSeen = now
	}
	e.busy++
	s.mu.Unlock()

	// Serialize the tenant's requests: block here until the previous
	// request commits or aborts. The shard lock is NOT held across this
	// wait, so other tenants on the shard proceed.
	e.mu.Lock()

	if m.opts.BudgetBits > 0 {
		if spent := m.spentBits(e); spent >= m.opts.BudgetBits {
			e.denials++
			denErr := &BudgetError{
				Tenant:     tenant,
				SpentBits:  spent,
				BudgetBits: m.opts.BudgetBits,
				RetryAfter: m.retryAfter(),
			}
			e.mu.Unlock()
			m.checkIn(s, e)
			if m.opts.Metrics != nil {
				m.opts.Metrics.Add(obs.BudgetDenials, 1)
			}
			return nil, denErr
		}
	}
	return &e.tk, nil
}

// retryAfter derives the denial's Retry-After from the session
// schedule: the budget resets when the session idles out, and the
// denial itself counts as activity (checkIn stamps the idle clock),
// so the earliest useful retry is one full TTL from now. 0 when
// sessions never expire — the budget is then permanent.
func (m *Manager) retryAfter() time.Duration {
	if m.opts.TTL <= 0 {
		return 0
	}
	return m.opts.TTL
}

// drop removes an idle, unpinned session from its shard and counts
// the eviction. Caller holds s.mu.
func (m *Manager) drop(s *shard, e *session, ttl bool) {
	s.remove(e)
	s.idleRemove(e)
	delete(s.byID, e.tenant)
	if m.opts.Metrics != nil {
		m.opts.Metrics.AddSessionEvicted(ttl)
	}
}

// evict makes room on a shard before an insert: expired sessions go
// first, then — when the shard is at capacity — the least recently
// used idle session. Busy and pinned sessions are never evicted. It
// returns one of the sessions it removed, for the caller to recycle,
// or nil. Caller holds s.mu.
//
// The TTL sweep visits only expired sessions (and pinned ones among
// them): it walks the idle list from its tail, oldest check-in first,
// and stops at the first session that has not expired. The victim
// scan skips only busy and pinned sessions.
func (m *Manager) evict(s *shard, now time.Time) *session {
	var spare *session
	if m.opts.TTL > 0 {
		for e := s.idleTail; e != nil && now.Sub(e.lastSeen) >= m.opts.TTL; {
			prev := e.idlePrev
			if e.pins == 0 {
				m.drop(s, e, true)
				spare = e
			}
			e = prev
		}
	}
	for len(s.byID) >= m.perShard {
		victim := s.tail
		for victim != nil && (victim.busy > 0 || victim.pins > 0) {
			victim = victim.prev
		}
		if victim == nil {
			// Every session is busy; admit over cap rather than deadlock.
			break
		}
		m.drop(s, victim, false)
		spare = victim
	}
	return spare
}

// Peek returns a tenant's accounting snapshot without admitting a
// request (and without refreshing its LRU or idle position). ok is
// false when the tenant has no live session.
func (m *Manager) Peek(tenant string) (Info, bool) {
	s := m.shardFor(tenant)
	s.mu.Lock()
	e, ok := s.byID[tenant]
	if ok {
		e.pins++ // pin against eviction and recycling while we read
	}
	s.mu.Unlock()
	if !ok {
		return Info{}, false
	}
	e.mu.Lock()
	info := m.info(e)
	e.mu.Unlock()
	s.mu.Lock()
	e.pins--
	s.mu.Unlock()
	return info, true
}

// Package session implements the serving-stack refactor of the reference
// monitor's session concern (paper §2–3): per-tenant, node-local session
// tables with selective role activation, and a zero-allocation access-check
// fast path over engine snapshots.
//
// A Table owns the sessions of one tenant on one node. Sessions are
// node-local runtime state (they are not replicated — audit and policy are;
// see internal/storage and internal/replication): a client creates its
// session on the replica it reads from, exactly like a database connection.
//
// The access-check fast path has two layers, both riding the engine's
// decision-cache invalidation machinery (internal/decision):
//
//   - A verdict cache: each (session, privilege) pair checked gets a
//     table-unique check fingerprint, and the verdict computed at engine
//     generation G is stored in a decision.Cache. Validity is decided
//     reader-side against the snapshot's posFloor/negFloor watermarks — an
//     allowed check survives arbitrary grant-only churn, one revocation
//     invalidates everything in O(1) — and a session's activation change
//     abandons its fingerprints wholesale (a fresh fingerprint map means
//     stale verdicts are simply never looked up again).
//   - A compiled role bitset: a session's activated roles, filtered by
//     current activatability (u →φ r), are compiled into a bitset over graph
//     vertex ids — the union of the roles' reachable sets. A check is then
//     one privilege-id → vertex-id table hit and one bit test. The bitset is
//     bound to one policy materialisation (vertex ids are per-instance) and
//     revalidated against the same floors: set bits survive grants, clear
//     bits survive only a mutation-free window.
//
// Both layers are allocation-free in steady state; compiles and fingerprint
// assignment are amortised slow paths. Constraint sets guard activations
// (DSD) here, while SSD guards ride the tenant write path — see
// internal/constraints and tenant.Options.Constraints.
package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/decision"
	"adminrefine/internal/engine"
	"adminrefine/internal/graph"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
)

// DefaultMaxSessions caps a table's live sessions unless configured
// otherwise: sessions are node-local RAM, so a bound keeps a misbehaving
// client from growing the table without end.
const DefaultMaxSessions = 1 << 16

// ErrTableFull marks a create refused by the MaxSessions bound — transient
// capacity pressure, not an authorization denial; transports map it to a
// retryable status (see internal/server).
var ErrTableFull = errors.New("session table at capacity")

// IsTableFull reports whether err is the MaxSessions capacity refusal.
func IsTableFull(err error) bool { return errors.Is(err, ErrTableFull) }

// ErrNoSession marks an operation against a session id this table never
// issued (or already dropped) — an addressing miss, not an authorization
// denial; transports map it to 404.
var ErrNoSession = errors.New("no such session")

// IsNoSession reports whether err is an unknown-session miss.
func IsNoSession(err error) bool { return errors.Is(err, ErrNoSession) }

// Options configures a Table (and, through a Registry, every table).
type Options struct {
	// Constraints optionally guards role activations (DSD). SSD constraints
	// belong on the write path (tenant.Options.Constraints), not here.
	Constraints *constraints.Set
	// CacheSlots sizes the check verdict cache (rounded up to a power of
	// two). 0 uses decision.DefaultSlots; negative disables caching.
	CacheSlots int
	// MaxSessions bounds live sessions per table (0 = DefaultMaxSessions;
	// negative = unlimited).
	MaxSessions int
}

// Table is one tenant's node-local session table. All methods are safe for
// concurrent use; Check is lock-free and allocation-free in steady state.
type Table struct {
	cons  atomic.Pointer[constraints.Set]
	cache *decision.Cache
	// interner assigns dense privilege ids at the check boundary (identity,
	// not hash: collisions are impossible by construction).
	interner *command.Interner
	// nextFP allocates table-unique check fingerprints; 0 is the cache's
	// empty-slot sentinel, so allocation starts at 1.
	nextFP      atomic.Uint32
	maxSessions int

	nextID   atomic.Uint64
	count    atomic.Int64
	sessions sync.Map // uint64 -> *Session

	// vids caches privilege-id → graph-vertex-id per policy materialisation
	// (only Policy.Clone keeps vertex ids; an installed policy or a replica
	// bootstrap numbers its own, and the table outlives both).
	vids atomic.Pointer[vidTable]
	vmu  sync.Mutex // serialises vidTable replacement/growth

	checks   atomic.Uint64
	compiles atomic.Uint64
}

// NewTable builds an empty session table.
func NewTable(opts Options) *Table {
	slots := opts.CacheSlots
	if slots == 0 {
		slots = decision.DefaultSlots
	}
	max := opts.MaxSessions
	if max == 0 {
		max = DefaultMaxSessions
	}
	t := &Table{
		cache:       decision.New(slots),
		interner:    command.NewInterner(),
		maxSessions: max,
	}
	t.cons.Store(opts.Constraints)
	return t
}

// SetConstraints installs (or clears, with nil) the DSD activation guard.
func (t *Table) SetConstraints(cons *constraints.Set) { t.cons.Store(cons) }

// Session is one user session with an explicitly activated role set.
// Sessions are owned by their Table; read accessors are safe for concurrent
// use.
type Session struct {
	// ID is the table-unique session identifier.
	ID uint64
	// User owns the session.
	User string
	t    *Table

	mu    sync.Mutex // guards roles, epoch bumps, fp assignment
	roles map[string]struct{}

	// view is the compiled role bitset; nil until the first check compiles
	// it, reset on every activation change.
	view atomic.Pointer[view]
	// fps maps privilege ids to this session's check fingerprints; replaced
	// wholesale on activation change, which orphans every cached verdict.
	fps atomic.Pointer[fpMap]
}

type fpMap struct {
	m map[command.PrivID]uint32
}

// view is one compiled materialisation of the session's access rights:
// the union of the reachable sets of the still-activatable active roles,
// as a bitset over pol's vertex ids.
type view struct {
	pol  *policy.Policy // instance identity: vertex ids are per-instance
	gen  uint64         // engine generation compiled at
	bits []uint64
	n    int // vertex count covered; ids >= n read as clear
}

func (v *view) has(id int32) bool {
	if id < 0 || int(id) >= v.n {
		return false
	}
	return v.bits[id>>6]&(1<<(uint(id)&63)) != 0
}

// vidTable resolves interned privilege ids to vertex ids of one policy
// instance. Entries are vid+1 (0 = unresolved, retried on use).
type vidTable struct {
	pol *policy.Policy
	ids []atomic.Int32
}

// Roles returns the activated role names, sorted.
func (s *Session) Roles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rolesLocked()
}

func (s *Session) rolesLocked() []string {
	out := make([]string, 0, len(s.roles))
	for r := range s.roles {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// invalidateLocked abandons the compiled view and the fingerprint map after
// an activation change; caller holds s.mu.
func (s *Session) invalidateLocked() {
	s.view.Store(nil)
	s.fps.Store(&fpMap{m: map[command.PrivID]uint32{}})
}

// Create starts a session for user, activating the given roles after
// validating each against the snapshot (u →φ r) and the DSD constraints.
func (t *Table) Create(snap *engine.Snapshot, user string, roles []string) (*Session, error) {
	if user == "" {
		return nil, fmt.Errorf("session: empty user")
	}
	pol := snap.Policy()
	active := make(map[string]struct{}, len(roles))
	for _, r := range roles {
		if !pol.CanActivate(user, r) {
			return nil, fmt.Errorf("session: user %s may not activate role %s", user, r)
		}
		active[r] = struct{}{}
	}
	if err := t.checkDSD(user, active); err != nil {
		return nil, err
	}
	// Reserve the slot before publishing: Add-then-check keeps concurrent
	// creates from racing past the bound (a plain Load-then-Add would admit
	// a whole burst at capacity-1).
	if n := t.count.Add(1); t.maxSessions > 0 && n > int64(t.maxSessions) {
		t.count.Add(-1)
		return nil, fmt.Errorf("session: %w (%d live sessions)", ErrTableFull, t.maxSessions)
	}
	s := &Session{ID: t.nextID.Add(1), User: user, t: t, roles: active}
	s.fps.Store(&fpMap{m: map[command.PrivID]uint32{}})
	t.sessions.Store(s.ID, s)
	return s, nil
}

// Get resolves a session by id.
func (t *Table) Get(id uint64) (*Session, bool) {
	v, ok := t.sessions.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*Session), true
}

func (t *Table) session(id uint64) (*Session, error) {
	s, ok := t.Get(id)
	if !ok {
		return nil, fmt.Errorf("session: no session %d: %w", id, ErrNoSession)
	}
	return s, nil
}

// Activate activates a role in the session. Permitted iff u →φ r under the
// snapshot (§2) and the DSD constraints admit the resulting active set.
func (t *Table) Activate(snap *engine.Snapshot, id uint64, role string) error {
	s, err := t.session(id)
	if err != nil {
		return err
	}
	if !snap.Policy().CanActivate(s.User, role) {
		return fmt.Errorf("session: user %s may not activate role %s", s.User, role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roles[role]; ok {
		return nil
	}
	proposed := make(map[string]struct{}, len(s.roles)+1)
	for r := range s.roles {
		proposed[r] = struct{}{}
	}
	proposed[role] = struct{}{}
	if err := t.checkDSD(s.User, proposed); err != nil {
		return err
	}
	s.roles[role] = struct{}{}
	s.invalidateLocked()
	return nil
}

// checkDSD evaluates the table's DSD constraints (if any) against a
// proposed active role set — the one activation guard Create, Activate and
// Update all share.
func (t *Table) checkDSD(user string, proposed map[string]struct{}) error {
	cons := t.cons.Load()
	if cons == nil || len(proposed) == 0 {
		return nil
	}
	names := make([]string, 0, len(proposed))
	for r := range proposed {
		names = append(names, r)
	}
	if vs := cons.CheckActivation(user, names); len(vs) > 0 {
		return fmt.Errorf("session: activation rejected: %s", vs[0].Error())
	}
	return nil
}

// Update applies a whole role-set change atomically: every requested
// activation is validated (u →φ r and the DSD constraints against the
// final proposed set) and every requested deactivation checked for
// membership BEFORE anything mutates, so a rejected update leaves the
// session exactly as it was — the transactional entry point the HTTP
// session-update endpoint uses (a partial apply that reports failure would
// leave the session holding privilege no response ever confirmed). It
// returns the session so callers render the post-update state without a
// second lookup that could race a concurrent Drop into a false failure.
func (t *Table) Update(snap *engine.Snapshot, id uint64, activate, deactivate []string) (*Session, error) {
	s, err := t.session(id)
	if err != nil {
		return nil, err
	}
	pol := snap.Policy()
	for _, role := range activate {
		if !pol.CanActivate(s.User, role) {
			return nil, fmt.Errorf("session: user %s may not activate role %s", s.User, role)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	proposed := make(map[string]struct{}, len(s.roles)+len(activate))
	for r := range s.roles {
		proposed[r] = struct{}{}
	}
	for _, role := range deactivate {
		if _, ok := proposed[role]; !ok {
			return nil, fmt.Errorf("session: role %s not active in session %d", role, id)
		}
		delete(proposed, role)
	}
	changed := len(deactivate) > 0
	for _, role := range activate {
		if _, ok := proposed[role]; !ok {
			proposed[role] = struct{}{}
			changed = true
		}
	}
	if err := t.checkDSD(s.User, proposed); err != nil {
		return nil, err
	}
	if !changed {
		return s, nil
	}
	s.roles = proposed
	s.invalidateLocked()
	return s, nil
}

// Deactivate drops a role from the session's active set (least privilege in
// action).
func (t *Table) Deactivate(id uint64, role string) error {
	s, err := t.session(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.roles[role]; !ok {
		return fmt.Errorf("session: role %s not active in session %d", role, id)
	}
	delete(s.roles, role)
	s.invalidateLocked()
	return nil
}

// Drop ends the session.
func (t *Table) Drop(id uint64) error {
	if _, ok := t.sessions.LoadAndDelete(id); !ok {
		return fmt.Errorf("session: no session %d: %w", id, ErrNoSession)
	}
	t.count.Add(-1)
	return nil
}

// Len reports the live session count.
func (t *Table) Len() int { return int(t.count.Load()) }

// Drain drops every session, returning how many were live — the SIGTERM
// path: sessions are node-local and die with the node, loudly not silently.
func (t *Table) Drain() int {
	n := 0
	t.sessions.Range(func(k, _ any) bool {
		if _, ok := t.sessions.LoadAndDelete(k); ok {
			t.count.Add(-1)
			n++
		}
		return true
	})
	return n
}

// Check reports whether the session may exercise priv under the snapshot:
// some activated role r that is still activatable (u →φ r) must reach the
// privilege vertex (r →φ p) — the monitor CheckAccess semantics of §2,
// served lock-free. The steady-state path (verdict-cache or compiled-bitset
// hit) performs no allocations.
func (t *Table) Check(snap *engine.Snapshot, id uint64, priv model.Privilege) (bool, error) {
	s, err := t.session(id)
	if err != nil {
		return false, err
	}
	t.checks.Add(1)
	gen := snap.Generation()
	posFloor, negFloor := snap.ValidityFloors()

	pid := t.interner.PrivilegeID(priv)
	// The fingerprint map is captured once: the verdict computed below is
	// only cached under a fingerprint of THIS activation epoch (fpFor
	// refuses to allocate into a newer map), so a concurrent role change
	// can never get a pre-change verdict stored under its fresh epoch.
	var fm *fpMap
	fp := uint32(0)
	if pid != 0 && t.cache.Enabled() {
		if fm = s.fps.Load(); fm != nil {
			fp = fm.m[pid]
		}
		if fp != 0 {
			if _, allowed, ok := t.cache.Get(fp, gen, posFloor, negFloor); ok {
				return allowed, nil
			}
		}
	}

	allowed := t.checkView(snap, s, pid, priv, gen, posFloor, negFloor)
	if fm != nil {
		if fp == 0 {
			fp = s.fpFor(fm, pid)
		}
		if fp != 0 {
			t.cache.Put(fp, gen, allowed, 0)
		}
	}
	return allowed, nil
}

// checkView answers the check from the compiled bitset, recompiling it
// against the snapshot when it is missing, bound to another policy
// materialisation, or invalidated by the floors.
func (t *Table) checkView(snap *engine.Snapshot, s *Session, pid command.PrivID, priv model.Privilege, gen, posFloor, negFloor uint64) bool {
	pol := snap.Policy()
	v := s.view.Load()
	if v != nil && v.pol == pol {
		vid := t.vidOf(pol, pid, priv)
		if v.has(vid) {
			if v.gen >= posFloor {
				return true // set bits survive grants (reachability is monotone)
			}
		} else if v.gen >= negFloor {
			return false // clear bits only survive a mutation-free window
		}
	}
	v = s.compile(snap)
	return v.has(t.vidOf(pol, pid, priv))
}

// compile (re)builds the session's bitset against the snapshot: the union of
// the reachable sets of every active role the user can still activate.
func (s *Session) compile(snap *engine.Snapshot) *view {
	s.mu.Lock()
	defer s.mu.Unlock()
	pol := snap.Policy()
	if v := s.view.Load(); v != nil && v.pol == pol && v.gen >= snap.Generation() {
		return v // a concurrent check already compiled for this state
	}
	s.t.compiles.Add(1)
	g := pol.Graph()
	n := g.NumVertices()
	v := &view{pol: pol, gen: snap.Generation(), bits: make([]uint64, (n+63)/64), n: n}
	for role := range s.roles {
		if !pol.CanActivate(s.User, role) {
			continue // assignment revoked since activation
		}
		rid := g.Lookup(model.Role(role).Key())
		if rid == graph.NoVertex {
			continue
		}
		for i, in := range g.ReachableFrom(rid) {
			if in {
				v.bits[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	s.view.Store(v)
	return v
}

// fpFor returns (allocating on first use) the session's check fingerprint
// for the privilege id, provided the activation epoch the caller computed
// its verdict under — identified by the fpMap it loaded — is still current.
// Fingerprints are scoped to one epoch: a role change swaps in a fresh map,
// so verdicts cached under old fingerprints can never be observed again,
// and a verdict computed against the old roles must not be allocated a slot
// in the new map (fpFor returns 0 and the caller skips the cache).
func (s *Session) fpFor(seen *fpMap, pid command.PrivID) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm := s.fps.Load()
	if fm != seen {
		return 0 // roles changed since the verdict was computed
	}
	if f, ok := fm.m[pid]; ok {
		return f
	}
	f := s.t.nextFP.Add(1)
	next := make(map[command.PrivID]uint32, len(fm.m)+1)
	for k, v := range fm.m {
		next[k] = v
	}
	next[pid] = f
	s.fps.Store(&fpMap{m: next})
	return f
}

// vidOf resolves the privilege's graph vertex id under pol, caching by
// privilege id per policy materialisation. Returns -1 when the privilege is
// not a vertex of the policy (denied in every session).
func (t *Table) vidOf(pol *policy.Policy, pid command.PrivID, priv model.Privilege) int32 {
	if pid == 0 {
		// Interner at capacity: resolve uncached.
		if id := pol.Graph().Lookup(priv.Key()); id != graph.NoVertex {
			return int32(id)
		}
		return -1
	}
	vt := t.vids.Load()
	if vt == nil || vt.pol != pol || int(pid) >= len(vt.ids) {
		vt = t.growVids(vt, pol, int(pid))
	}
	if c := vt.ids[pid].Load(); c != 0 {
		return c - 1
	}
	id := pol.Graph().Lookup(priv.Key())
	if id == graph.NoVertex {
		return -1 // absent vertices are retried (they may be interned later)
	}
	vt.ids[pid].Store(int32(id) + 1)
	return int32(id)
}

// growVids replaces or extends the vertex-id table so it covers pid under
// pol. Lost concurrent stores are harmless (it is a cache).
func (t *Table) growVids(old *vidTable, pol *policy.Policy, pid int) *vidTable {
	t.vmu.Lock()
	defer t.vmu.Unlock()
	cur := t.vids.Load()
	if cur != nil && cur.pol == pol && pid < len(cur.ids) {
		return cur
	}
	n := pid + 1
	if cur != nil && cur.pol == pol {
		if m := 2 * len(cur.ids); m > n {
			n = m
		}
	}
	if n < 64 {
		n = 64
	}
	next := &vidTable{pol: pol, ids: make([]atomic.Int32, n)}
	if cur != nil && cur.pol == pol {
		for i := range cur.ids {
			next.ids[i].Store(cur.ids[i].Load())
		}
	}
	t.vids.Store(next)
	return next
}

// Perms returns the user privileges currently granted to the session
// through its active, still-activatable roles, sorted by key.
func (t *Table) Perms(snap *engine.Snapshot, id uint64) ([]model.UserPrivilege, error) {
	s, err := t.session(id)
	if err != nil {
		return nil, err
	}
	pol := snap.Policy()
	seen := map[string]model.UserPrivilege{}
	for _, role := range s.Roles() {
		if !pol.CanActivate(s.User, role) {
			continue
		}
		for _, q := range pol.AuthorizedPerms(model.Role(role)) {
			seen[q.Key()] = q
		}
	}
	out := make([]model.UserPrivilege, 0, len(seen))
	for _, q := range seen {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// Stats is a point-in-time view of one table's counters.
type Stats struct {
	Sessions int            `json:"sessions"`
	Checks   uint64         `json:"checks"`
	Compiles uint64         `json:"compiles"`
	Cache    decision.Stats `json:"cache"`
}

// Stats reads the table's counters.
func (t *Table) Stats() Stats {
	return Stats{
		Sessions: t.Len(),
		Checks:   t.checks.Load(),
		Compiles: t.compiles.Load(),
		Cache:    t.cache.Stats(),
	}
}

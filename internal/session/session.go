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
// A check is answered from one structure, the session's compiled view: its
// activated roles, filtered by current activatability (u →φ r), compiled into
// a bitset over graph vertex ids — the union of the roles' reachable sets. A
// check is then one privilege-id → vertex-id table hit and one bit test. The
// view is bound to one policy materialisation (vertex ids are per-instance;
// a session keeps one view for each of the two replicas an engine alternates
// between) and revalidated against the snapshot's posFloor/negFloor
// watermarks, the engine's verdict invalidation rules (internal/decision):
// set bits survive grant-only churn, clear bits survive only a mutation-free
// window, and an activation change drops the views.
//
// A warm check is allocation-free; a compile is the amortised slow path.
// Constraint sets guard activations (DSD) here, while SSD guards ride the
// tenant write path — see internal/constraints and
// tenant.Options.Constraints.
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
	// MaxSessions bounds live sessions per table (0 = DefaultMaxSessions;
	// negative = unlimited).
	MaxSessions int
}

// Table is one tenant's node-local session table. All methods are safe for
// concurrent use; Check is lock-free and allocation-free in steady state.
type Table struct {
	cons atomic.Pointer[constraints.Set]
	// interner assigns dense privilege ids at the check boundary (identity,
	// not hash: collisions are impossible by construction).
	interner    *command.Interner
	maxSessions int

	nextID   atomic.Uint64
	count    atomic.Int64
	sessions sync.Map // uint64 -> *Session

	// vids caches privilege-id → graph-vertex-id per policy materialisation,
	// one table for each of the two replicas an engine alternates its
	// readers between. The replicas of one engine number their vertices
	// alike (an undone grant resyncs its replica), but an installed policy
	// or a replica bootstrap numbers its own, and the table outlives all.
	vids  [2]atomic.Pointer[vidTable]
	vmu   sync.Mutex // serialises vidTable replacement/growth
	vnext int        // under vmu: the slot a third materialisation replaces

	checks   atomic.Uint64
	compiles atomic.Uint64
}

// NewTable builds an empty session table.
func NewTable(opts Options) *Table {
	max := opts.MaxSessions
	if max == 0 {
		max = DefaultMaxSessions
	}
	t := &Table{interner: command.NewInterner(), maxSessions: max}
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

	mu    sync.Mutex // guards roles and the views' replacement
	roles map[string]struct{}

	// views are the compiled role bitsets, one per policy materialisation
	// (slot 1 is empty while slot 0 is); nil until a check compiles one,
	// dropped under mu on every activation change, so a check that starts
	// after the change returns compiles against the new roles.
	views [2]atomic.Pointer[view]
}

// viewOf returns the session's view compiled against pol, or nil.
func (s *Session) viewOf(pol *policy.Policy) *view {
	for i := range s.views {
		if v := s.views[i].Load(); v != nil && v.pol == pol {
			return v
		}
	}
	return nil
}

// dropViewsLocked forgets the compiled views; caller holds s.mu.
func (s *Session) dropViewsLocked() {
	s.views[0].Store(nil)
	s.views[1].Store(nil)
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
// instance. An entry c is 0 while unresolved, vid+1 for a vertex, and ^n
// (negative) for a privilege that was no vertex while the graph had n
// vertices.
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
	s.dropViewsLocked()
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
	s.dropViewsLocked()
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
	s.dropViewsLocked()
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
// served lock-free from the compiled view, which is recompiled against the
// snapshot when it is missing, bound to another policy materialisation, or
// invalidated by the floors. A warm check performs no allocations.
func (t *Table) Check(snap *engine.Snapshot, id uint64, priv model.Privilege) (bool, error) {
	s, err := t.session(id)
	if err != nil {
		return false, err
	}
	t.checks.Add(1)
	pid := t.interner.PrivilegeID(priv)
	pol := snap.Policy()
	posFloor, negFloor := snap.ValidityFloors()
	if v := s.viewOf(pol); v != nil {
		if v.has(t.vidOf(pol, pid, priv)) {
			if v.gen >= posFloor {
				return true, nil // set bits survive grants (reachability is monotone)
			}
		} else if v.gen >= negFloor {
			return false, nil // clear bits only survive a mutation-free window
		}
	}
	return s.compile(snap).has(t.vidOf(pol, pid, priv)), nil
}

// compile (re)builds the session's bitset against the snapshot: the union of
// the reachable sets of every active role the user can still activate.
func (s *Session) compile(snap *engine.Snapshot) *view {
	s.mu.Lock()
	defer s.mu.Unlock()
	pol := snap.Policy()
	if v := s.viewOf(pol); v != nil && v.gen >= snap.Generation() {
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
	// Replace pol's own view, else fill slot 1, else replace the view
	// compiled at the older generation.
	i := 0
	if a, b := s.views[0].Load(), s.views[1].Load(); a != nil && a.pol != pol && (b == nil || b.pol == pol || b.gen < a.gen) {
		i = 1
	}
	s.views[i].Store(v)
	return v
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
	vt := t.vids[0].Load()
	if vt == nil || vt.pol != pol {
		vt = t.vids[1].Load()
	}
	if vt == nil || vt.pol != pol || int(pid) >= len(vt.ids) {
		vt = t.growVids(pol, int(pid))
	}
	g := pol.Graph()
	n := g.NumVertices()
	switch c := vt.ids[pid].Load(); {
	case c > 0:
		return c - 1
	case c < 0 && int(^c) == n:
		return -1 // no vertex was added since the miss was tagged
	}
	id := g.Lookup(priv.Key())
	if id == graph.NoVertex {
		// Tag the miss with the vertex count: a Digraph never removes a
		// vertex (no mutation does, and a rollback undoes edges only), so a
		// key absent at n vertices stays absent until the count changes.
		vt.ids[pid].Store(^int32(n))
		return -1
	}
	vt.ids[pid].Store(int32(id) + 1)
	return int32(id)
}

// growVids extends pol's vertex-id table so it covers pid, or replaces the
// other slots' tables in turn with a new one for pol. Lost concurrent
// stores are harmless (it is a cache).
func (t *Table) growVids(pol *policy.Policy, pid int) *vidTable {
	t.vmu.Lock()
	defer t.vmu.Unlock()
	i, n := t.vnext, 64
	var cur *vidTable
	for j := range t.vids {
		if vt := t.vids[j].Load(); vt != nil && vt.pol == pol {
			i, cur, n = j, vt, 2*len(vt.ids)
		}
	}
	switch {
	case cur == nil:
		t.vnext = 1 - i
	case pid < len(cur.ids):
		return cur
	}
	next := &vidTable{pol: pol, ids: make([]atomic.Int32, max(n, pid+1))}
	if cur != nil {
		for j := range cur.ids {
			next.ids[j].Store(cur.ids[j].Load())
		}
	}
	t.vids[i].Store(next)
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

// Stats reads the table's counters. Cache keeps the /stats shape of the
// verdict stores: a hit is a check answered without a compile, a miss a
// compile; nothing is stored or evicted.
func (t *Table) Stats() Stats {
	// Compiles first: each compile follows its check's count, so the
	// difference never underflows.
	compiles := t.compiles.Load()
	checks := t.checks.Load()
	return Stats{
		Sessions: t.Len(),
		Checks:   checks,
		Compiles: compiles,
		Cache:    decision.Stats{Hits: checks - compiles, Misses: compiles},
	}
}

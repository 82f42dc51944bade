// Package monitor is the single-process compatibility facade over the
// layers that now implement the paper's §2–3 reference monitor: sessions
// with selective role activation live in internal/session, administrative
// transitions run through the internal/engine snapshot engine, and
// constraint guarding is the shared engine.Guard produced by
// constraints.Set.Guard — the same guard the multi-tenant write path
// installs (tenant.Options.Constraints). The monitor keeps the original
// in-process API (CLI, examples and experiments depend on it) while the
// serving stack (internal/server) exposes the same three concerns — session,
// check, audit — per tenant over HTTP with durable, replicated audit.
//
// Every administrative action is recorded in an in-memory audit log;
// package storage can persist the log as a write-ahead journal (Attach).
// In the distributed stack the audit log is instead a WAL record kind
// appended under the engine commit hook — see storage.StageCommit.
package monitor

import (
	"fmt"
	"sync"

	"adminrefine/internal/command"
	"adminrefine/internal/constraints"
	"adminrefine/internal/engine"
	"adminrefine/internal/model"
	"adminrefine/internal/policy"
	"adminrefine/internal/session"
)

// Mode selects the administrative authorization regime.
type Mode uint8

const (
	// ModeStrict authorizes commands by the literal Definition 5 check.
	ModeStrict Mode = iota
	// ModeRefined additionally grants every privilege weaker (Ãφ) than a
	// held one, per §4.1.
	ModeRefined
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRefined {
		return "refined"
	}
	return "strict"
}

func (m Mode) engineMode() engine.Mode {
	if m == ModeRefined {
		return engine.Refined
	}
	return engine.Strict
}

// Session is a user session with an explicitly activated role set. It is a
// view over the session table entry; the table re-validates activations
// against the current policy on every access check, so policy changes take
// effect immediately (revocation semantics: a revoked role silently stops
// contributing privileges).
type Session struct {
	ID   int
	User string
	s    *session.Session
}

// ActiveRoles returns the activated role names (sorted copy).
func (s *Session) ActiveRoles() []string { return s.s.Roles() }

// AuditEntry records one administrative command processed by the monitor.
type AuditEntry struct {
	Seq           int
	Cmd           command.Command
	Outcome       command.Outcome
	Mode          Mode
	Justification model.Privilege // nil unless applied
	// Reason carries a denial explanation beyond Definition 5, e.g. a
	// separation-of-duty constraint violation.
	Reason string
}

// String renders the entry.
func (e AuditEntry) String() string {
	s := fmt.Sprintf("#%d %s [%s] %s", e.Seq, e.Cmd, e.Mode, e.Outcome)
	if e.Justification != nil {
		s += " via " + e.Justification.String()
	}
	if e.Reason != "" {
		s += " (" + e.Reason + ")"
	}
	return s
}

// Monitor is a concurrency-safe RBAC reference monitor over one policy.
type Monitor struct {
	eng  *engine.Engine
	mode Mode
	tbl  *session.Table

	mu    sync.Mutex
	audit []AuditEntry
	// observers are notified after each applied command (e.g. the WAL).
	observers []func(AuditEntry)
	// cons optionally guards commands (SSD); its DSD half is installed on
	// the session table.
	cons *constraints.Set
}

// New builds a monitor owning the policy. The policy must not be mutated
// behind the monitor's back (the engine takes ownership of it).
func New(p *policy.Policy, mode Mode) *Monitor {
	return &Monitor{
		eng:  engine.New(p, mode.engineMode()),
		mode: mode,
		tbl:  session.NewTable(session.Options{}),
	}
}

// Mode returns the monitor's authorization mode.
func (m *Monitor) Mode() Mode { return m.mode }

// Snapshot returns a lock-free read-only view of the current policy state
// for read-heavy services (see internal/engine.Snapshot). The caller must
// Close it. Writes are not exposed: all mutations go through Submit so the
// constraint guard and audit log mediate every command.
func (m *Monitor) Snapshot() *engine.Snapshot { return m.eng.Snapshot() }

// Sessions exposes the monitor's session table — the layer CheckAccess is a
// facade over (see internal/session for the fast-path contract).
func (m *Monitor) Sessions() *session.Table { return m.tbl }

// SetConstraints installs (or clears, with nil) a separation-of-duty
// constraint set. SSD constraints veto administrative commands whose
// resulting policy would violate them — the command is consumed without
// effect, like an unauthorized one; DSD constraints veto role activations.
// The current policy is not retro-checked: use cons.CheckPolicy to audit it.
func (m *Monitor) SetConstraints(cons *constraints.Set) {
	m.mu.Lock()
	m.cons = cons
	m.mu.Unlock()
	m.tbl.SetConstraints(cons)
}

// Observe registers a callback invoked (under the monitor lock) for every
// processed administrative command. Storage hooks the WAL here.
func (m *Monitor) Observe(fn func(AuditEntry)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observers = append(m.observers, fn)
}

// Policy returns a snapshot clone of the current policy.
func (m *Monitor) Policy() *policy.Policy {
	s := m.eng.Snapshot()
	defer s.Close()
	return s.Policy().Clone()
}

// PolicyStats returns current policy statistics without cloning.
func (m *Monitor) PolicyStats() policy.Stats {
	s := m.eng.Snapshot()
	defer s.Close()
	return s.Policy().Stats()
}

// CreateSession starts a session for the user with no roles activated.
func (m *Monitor) CreateSession(user string) (*Session, error) {
	snap := m.eng.Snapshot()
	defer snap.Close()
	s, err := m.tbl.Create(snap, user, nil)
	if err != nil {
		return nil, err
	}
	return &Session{ID: int(s.ID), User: s.User, s: s}, nil
}

// DeleteSession ends a session.
func (m *Monitor) DeleteSession(id int) error {
	return m.tbl.Drop(uint64(id))
}

// ActivateRole activates a role in the session. Permitted iff u →φ r (§2).
func (m *Monitor) ActivateRole(sessionID int, role string) error {
	snap := m.eng.Snapshot()
	defer snap.Close()
	return m.tbl.Activate(snap, uint64(sessionID), role)
}

// DropRole deactivates a role in the session (least privilege in action).
func (m *Monitor) DropRole(sessionID int, role string) error {
	return m.tbl.Deactivate(uint64(sessionID), role)
}

// CheckAccess reports whether the session may perform (action, object): some
// activated role r that is still activatable (u →φ r under the current
// policy) must reach the user privilege (r →φ p). The check runs lock-free
// against the current snapshot through the session fast path.
func (m *Monitor) CheckAccess(sessionID int, action, object string) (bool, error) {
	snap := m.eng.Snapshot()
	defer snap.Close()
	return m.tbl.Check(snap, uint64(sessionID), model.Perm(action, object))
}

// SessionPerms returns the user privileges currently granted to the session
// through its active, still-valid roles.
func (m *Monitor) SessionPerms(sessionID int) ([]model.UserPrivilege, error) {
	snap := m.eng.Snapshot()
	defer snap.Close()
	return m.tbl.Perms(snap, uint64(sessionID))
}

// Submit processes one administrative command through the transition
// function, appends an audit entry, and returns the step result.
func (m *Monitor) Submit(c command.Command) command.StepResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.submitLocked(c)
}

func (m *Monitor) submitLocked(c command.Command) command.StepResult {
	res, gerr := m.eng.SubmitGuarded(c, m.cons.Guard())
	reason := ""
	if gerr != nil {
		reason = gerr.Error()
	}
	entry := AuditEntry{
		Seq:           len(m.audit) + 1,
		Cmd:           c,
		Outcome:       res.Outcome,
		Mode:          m.mode,
		Justification: res.Justification,
		Reason:        reason,
	}
	m.audit = append(m.audit, entry)
	for _, fn := range m.observers {
		fn(entry)
	}
	return res
}

// SubmitQueue processes a whole command queue (the run ⇒* of Definition 5).
func (m *Monitor) SubmitQueue(q command.Queue) []command.StepResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]command.StepResult, 0, len(q))
	for _, c := range q {
		out = append(out, m.submitLocked(c))
	}
	return out
}

// Audit returns a copy of the audit log.
func (m *Monitor) Audit() []AuditEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AuditEntry(nil), m.audit...)
}

// Explain describes why a command would be authorized or denied right now,
// without executing it. In refined mode the explanation includes the held
// stronger privilege and its derivation. Evaluation is lock-free against the
// current snapshot.
func (m *Monitor) Explain(c command.Command) string {
	snap := m.eng.Snapshot()
	defer snap.Close()
	return snap.ExplainCommand(c)
}

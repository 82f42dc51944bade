// Package adminrefine's root benchmark suite regenerates the quantitative
// side of the paper's experiments (registry: rbacbench -list) with
// testing.B. Each group names the experiment it backs:
//
//	L1  BenchmarkOrderingDepth, BenchmarkOrderingPolicySize, BenchmarkClosureBuild
//	E6  BenchmarkWeakerSet
//	F1  BenchmarkReachability, BenchmarkSessionCheck
//	F2  BenchmarkStrictAuthorize, BenchmarkTransition
//	F3  BenchmarkRefinedAuthorize
//	T1  BenchmarkNonAdminRefines, BenchmarkSimulateWeakening, BenchmarkBoundedAdminRefines
//	C1  BenchmarkFlexibility, BenchmarkSaturation
//	S1  BenchmarkMonitorSubmit, BenchmarkWALAppend, BenchmarkWALReplay
//	H1  BenchmarkHRUSafety
//	P1  BenchmarkSnapshotAuthorizeUnderWriter
//	--  BenchmarkFirstSightAuthorize, BenchmarkColdOpen, BenchmarkColdBatch (a cold tenant's costs)
//	--  BenchmarkParse, BenchmarkPrint, BenchmarkPolicyClone (substrate costs)
//
// The service itself is measured by the reference benchmark under bench/
// (bash bench/run.sh), not here.
//
// Run: go test -bench=. -benchmem
package adminrefine

import (
	"fmt"
	"testing"

	"adminrefine/internal/analysis"
	"adminrefine/internal/command"
	"adminrefine/internal/core"
	"adminrefine/internal/engine"
	"adminrefine/internal/graph"
	"adminrefine/internal/hru"
	"adminrefine/internal/model"
	"adminrefine/internal/monitor"
	"adminrefine/internal/parser"
	"adminrefine/internal/policy"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/workload"
)

// --- L1: tractability of the privilege ordering -------------------------

func BenchmarkOrderingDepth(b *testing.B) {
	const chainLen = 64
	p := workload.Chain(chainLen)
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			d := core.NewDecider(p)
			strong, weak := workload.NestedPair(chainLen, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ResetMemo()
				if !d.Weaker(strong, weak) {
					b.Fatal("pair not ordered")
				}
			}
		})
	}
}

func BenchmarkOrderingPolicySize(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("roles=%d", n), func(b *testing.B) {
			p := workload.Chain(n)
			d := core.NewDecider(p)
			strong, weak := workload.NestedPair(n, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ResetMemo()
				if !d.Weaker(strong, weak) {
					b.Fatal("pair not ordered")
				}
			}
		})
	}
}

func BenchmarkClosureBuild(b *testing.B) {
	build := func(name string, p *policy.Policy) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewDecider(p)
			}
		})
	}
	for _, n := range []int{16, 256, 1024} {
		build(fmt.Sprintf("roles=%d", n), workload.Chain(n))
	}
	// A write-heavy tenant's shape: most vertices are users, which are sources.
	build("users=2048", workload.ChurnPolicy(64, 2048))
}

// --- E6: weaker-set enumeration ------------------------------------------

func BenchmarkWeakerSet(b *testing.B) {
	p := policy.New()
	p.DeclareRole("r1")
	p.DeclareRole("r2")
	if _, err := p.GrantPrivilege("r2", model.Grant(model.Role("r1"), model.Role("r2"))); err != nil {
		b.Fatal(err)
	}
	base := model.Grant(model.Role("r1"), model.Role("r2"))
	for _, bound := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			d := core.NewDecider(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := d.WeakerSet(base, bound); len(got) != bound {
					b.Fatalf("weaker set size %d", len(got))
				}
			}
		})
	}
}

// --- F1: policy reachability and sessions --------------------------------

func BenchmarkReachability(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("hospital=%d", n), func(b *testing.B) {
			p := workload.Hospital(n)
			from := model.User("nurseuser_0")
			to := model.Perm("read", "t1_0")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !p.Reaches(from, to) {
					b.Fatal("unreachable")
				}
			}
		})
	}
}

func BenchmarkSessionCheck(b *testing.B) {
	m := monitor.New(policy.Figure1(), monitor.ModeStrict)
	s, err := m.CreateSession(policy.UserDiana)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.ActivateRole(s.ID, policy.RoleNurse); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := m.CheckAccess(s.ID, "read", "t1")
		if err != nil || !ok {
			b.Fatal("access check failed")
		}
	}
}

// --- F2/F3: authorization and the transition function --------------------

func BenchmarkStrictAuthorize(b *testing.B) {
	p := policy.Figure2()
	c := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	auth := command.Strict{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := auth.Authorize(p, c); !ok {
			b.Fatal("denied")
		}
	}
}

func BenchmarkRefinedAuthorize(b *testing.B) {
	p := policy.Figure2()
	c := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleDBUsr2))
	auth := core.NewRefinedAuthorizer(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := auth.Authorize(p, c); !ok {
			b.Fatal("denied")
		}
	}
}

func BenchmarkTransition(b *testing.B) {
	base := policy.Figure2()
	grant := command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	revoke := command.Revoke(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff))
	auth := command.Strict{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		command.Step(base, grant, auth)
		command.Step(base, revoke, auth)
	}
}

// --- T1: refinement checking ---------------------------------------------

func BenchmarkNonAdminRefines(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("hospital=%d", n), func(b *testing.B) {
			phi := workload.Hospital(n)
			psi := phi.Clone()
			psi.Deassign("nurseuser_0", "nurse_0")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !core.NonAdminRefines(phi, psi) {
					b.Fatal("not a refinement")
				}
			}
		})
	}
}

func BenchmarkSimulateWeakening(b *testing.B) {
	phi := policy.Figure2()
	w := core.Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	}
	queue := workload.Queue(phi, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.SimulateWeakening(phi, w, queue); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundedAdminRefines(b *testing.B) {
	phi := policy.Figure2()
	w := core.Weakening{
		Role:   policy.RoleHR,
		Strong: policy.PrivHRAssignBobStaff,
		Weak:   model.Grant(model.User(policy.UserBob), model.Role(policy.RoleDBUsr2)),
	}
	psi, err := core.WeakenAssignment(phi, w)
	if err != nil {
		b.Fatal(err)
	}
	alpha := core.RelevantCommands(phi, psi, []string{policy.UserJane})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.BoundedAdminRefines(phi, psi, core.BoundedAdminOptions{MaxLen: 1, Alphabet: alpha})
		if !res.Holds {
			b.Fatal("refinement rejected")
		}
	}
}

// --- C1: flexibility and saturation ---------------------------------------

func BenchmarkFlexibility(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("hospital=%d", n), func(b *testing.B) {
			p := workload.Hospital(n)
			universe := analysis.UAUniverse(p, "jane")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := analysis.Flexibility(p, universe)
				if rep.UnsafeExtras != 0 {
					b.Fatal("unsafe extras")
				}
			}
		})
	}
}

func BenchmarkSaturation(b *testing.B) {
	p := policy.Figure2()
	alpha := core.RelevantCommands(p, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.CanEverObtain(p, policy.UserBob, policy.PermReadT1, command.Strict{}, alpha)
		if !res.Reachable {
			b.Fatal("escalation lost")
		}
	}
}

// --- S1: monitor and WAL ---------------------------------------------------

func BenchmarkMonitorSubmit(b *testing.B) {
	queue := workload.Queue(workload.Hospital(8), 64, 5)
	for _, mode := range []monitor.Mode{monitor.ModeStrict, monitor.ModeRefined} {
		b.Run(mode.String(), func(b *testing.B) {
			m := monitor.New(workload.Hospital(8), mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Submit(queue[i%len(queue)])
			}
		})
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	st, _, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	res := command.StepResult{
		Cmd:     command.Grant(policy.UserJane, model.User(policy.UserBob), model.Role(policy.RoleStaff)),
		Outcome: command.Applied,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendStep(i+1, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	st, _, _, err := storage.Open(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Compact(workload.Hospital(4)); err != nil {
		b.Fatal(err)
	}
	m := monitor.New(workload.Hospital(4), monitor.ModeStrict)
	m.Observe(func(e monitor.AuditEntry) {
		if err := st.AppendStep(e.Seq, command.StepResult{Cmd: e.Cmd, Outcome: e.Outcome}); err != nil {
			b.Fatal(err)
		}
	})
	m.SubmitQueue(workload.Queue(workload.Hospital(4), 500, 9))
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, _, rec, err := storage.Open(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Records != 500 {
			b.Fatalf("replayed %d", rec.Records)
		}
		s2.Close()
	}
}

// --- H1: HRU state-space growth --------------------------------------------

func BenchmarkHRUSafety(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("subjects=%d", n), func(b *testing.B) {
			sys := hru.GrantSystem([]hru.Right{"read"})
			subjects := make([]string, n)
			for i := range subjects {
				subjects[i] = fmt.Sprintf("s%d", i)
			}
			sys.Subjects = subjects
			sys.Objects = []string{"file"}
			m := hru.Matrix{}
			m.Enter("s0", "file", "grant")
			m.Enter("s0", "file", "read")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := hru.BoundedSafety(sys, m, "absent", "file", "read", 3)
				if res.Leaks {
					b.Fatal("phantom leak")
				}
			}
		})
	}
}

// --- substrate costs --------------------------------------------------------

func BenchmarkParse(b *testing.B) {
	src := parser.Print(policy.Figure2(), nil)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrint(b *testing.B) {
	p := policy.Figure2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parser.Print(p, nil) == "" {
			b.Fatal("empty print")
		}
	}
}

func BenchmarkPolicyClone(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("hospital=%d", n), func(b *testing.B) {
			p := workload.Hospital(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Clone().NumEdges() != p.NumEdges() {
					b.Fatal("clone diverged")
				}
			}
		})
	}
}

// --- ablations: the design choices DESIGN.md calls out ----------------------

// BenchmarkOrderingWarm measures the memo-hit path (no ResetMemo): repeated
// queries against a long-lived Decider are effectively map lookups. Compare
// with BenchmarkOrderingDepth, which measures cold decisions.
func BenchmarkOrderingWarm(b *testing.B) {
	const chainLen = 64
	p := workload.Chain(chainLen)
	d := core.NewDecider(p)
	strong, weak := workload.NestedPair(chainLen, 64)
	if !d.Weaker(strong, weak) {
		b.Fatal("pair not ordered")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.Weaker(strong, weak) {
			b.Fatal("pair not ordered")
		}
	}
}

// BenchmarkReachabilityModes contrasts per-query DFS (what Policy.Reaches
// does) with the materialised closure the Decider uses — the justification
// for building the closure once per policy generation.
func BenchmarkReachabilityModes(b *testing.B) {
	p := workload.Chain(1024)
	g := p.Graph()
	from := g.Lookup(model.Role("c0000").Key())
	to := g.Lookup(model.Role("c1023").Key())
	b.Run("dfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !g.ReachesID(from, to) {
				b.Fatal("unreachable")
			}
		}
	})
	b.Run("closure", func(b *testing.B) {
		c := graph.NewClosure(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.Reaches(from, to) {
				b.Fatal("unreachable")
			}
		}
	})
}

// --- P1: concurrent snapshots -------------------------------------------------

// BenchmarkSnapshotAuthorizeUnderWriter measures lock-free snapshot reads
// under churn: readers authorize while one background writer churns grants
// through the engine.
func BenchmarkSnapshotAuthorizeUnderWriter(b *testing.B) {
	const roles, users = 256, 256
	e := engine.New(workload.ChurnPolicy(roles, users), engine.Refined)
	cmds := workload.CommandSlab(4096, users, roles)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The writer walks the unbounded churn stream (users×roles distinct
		// pairs) so it keeps publishing state changes for the whole run
		// instead of saturating the precomputed slab.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Submit(workload.ChurnGrant(i, users, roles))
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := e.Snapshot()
			if _, ok := s.Authorize(cmds[i%len(cmds)]); !ok {
				s.Close()
				b.Error("query denied")
				return
			}
			s.Close()
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkAssignableRoles(b *testing.B) {
	p := workload.Hospital(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := analysis.AssignableRoles(p, "jane", "flex_0"); len(got) == 0 {
			b.Fatal("no options")
		}
	}
}

func BenchmarkBoundedObtain(b *testing.B) {
	p := policy.Figure2()
	alpha := core.RelevantCommands(p, nil, []string{policy.UserAlice, policy.UserJane})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analysis.BoundedObtain(p, policy.UserBob, policy.PermReadT1, command.Strict{}, alpha, 2)
		if !res.Reachable {
			b.Fatal("escalation lost")
		}
	}
}

// --- a cold tenant: first-sight decisions and the open itself --------------

// firstSightSlab returns n distinct churn commands starting at the from-th:
// the administrator's (allowed) on even positions, the member's own attempt
// at the same grant (denied: a member reaches no privilege) on odd ones.
func firstSightSlab(from, n, users, roles int) []command.Command {
	out := make([]command.Command, n)
	for i := range out {
		c := workload.ChurnGrant(from+i/2, users, roles)
		if i%2 == 1 {
			c.Actor = c.From.(model.Entity).Name
		}
		out[i] = c
	}
	return out
}

// BenchmarkFirstSightAuthorize measures a decision on a command the engine
// has not seen before: the interner's doorkeeper says "not yet", so the
// command is decided uninterned. The slab is the bulk-cold fixture's whole
// pair space, twice the doorkeeper's aging period, so a command is forgotten
// before it recurs and every pass stays first-sight.
func BenchmarkFirstSightAuthorize(b *testing.B) {
	const roles, users = 256, 64
	e := engine.New(workload.ChurnPolicy(roles, users), engine.Refined)
	slab := firstSightSlab(0, 2*roles*users, users, roles)
	s := e.Snapshot()
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Authorize(slab[i%len(slab)]); ok != (i%len(slab)%2 == 0) {
			b.Fatalf("command %d: allowed=%v", i%len(slab), ok)
		}
	}
}

// BenchmarkColdOpen measures what a request for a non-resident tenant pays
// before its answer: evict the bulk-cold fixture's tenant (256 roles × 64
// users), then authorize one command against it — snapshot load, WAL
// replay, engine and closure build, decision.
func BenchmarkColdOpen(b *testing.B) {
	const roles, users = 256, 64
	reg := tenant.New(tenant.Options{Dir: b.TempDir(), Mode: engine.Refined})
	defer reg.Close()
	if err := reg.InstallPolicy("t", workload.ChurnPolicy(roles, users)); err != nil {
		b.Fatal(err)
	}
	c := workload.ChurnGrant(0, users, roles)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !reg.Evict("t") {
			b.Fatal("tenant not evicted")
		}
		if res, err := reg.Authorize("t", c); err != nil || !res.OK {
			b.Fatalf("authorize: ok=%v err=%v", res.OK, err)
		}
	}
}

// coldBatch is what a bulk-cold tenant is asked between open and eviction:
// one 512-command first-sight batch over the 256 × 64 fixture, its last 8
// commands repeating its first 8, so the open interns 8 commands (and the
// witnesses of the allowed ones). Command i is allowed iff i is even.
func coldBatch() []command.Command {
	batch := firstSightSlab(0, 512, 64, 256)
	copy(batch[504:], batch[:8])
	return batch
}

// coldBatchOp returns one evict + cold-batch round over reg's tenant "t",
// which must hold workload.ChurnPolicy(256, 64).
func coldBatchOp(fatalf func(string, ...any), reg *tenant.Registry) func() {
	batch := coldBatch()
	out := make([]engine.AuthzResult, 0, len(batch))
	return func() {
		if !reg.Evict("t") {
			fatalf("tenant not evicted")
		}
		results, _, err := reg.AuthorizeBatchInto("t", batch, out[:0])
		if err != nil {
			fatalf("batch: %v", err)
		}
		for i, res := range results {
			if res.OK != (i%2 == 0) {
				fatalf("command %d: allowed=%v", i, res.OK)
			}
		}
	}
}

// BenchmarkColdBatch measures an open that is used: evict the bulk-cold
// fixture's tenant, then decide one 512-command batch in which 8 commands
// recur — the in-process twin of a wire_bulk_cold tenant's life, and the
// row whose bytes per op show what an open allocates for its interner.
func BenchmarkColdBatch(b *testing.B) {
	reg := tenant.New(tenant.Options{Dir: b.TempDir(), Mode: engine.Refined})
	defer reg.Close()
	if err := reg.InstallPolicy("t", workload.ChurnPolicy(256, 64)); err != nil {
		b.Fatal(err)
	}
	op := coldBatchOp(b.Fatalf, reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

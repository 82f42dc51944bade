package command

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"adminrefine/internal/model"
)

// intern admits a command through the doorkeeper: the first sight returns
// nil by design (single-use commands are not worth immortal interned
// state), the second sight interns.
func intern(t *testing.T, it *Interner, c Command) *FPInfo {
	t.Helper()
	if info := it.Command(c); info != nil {
		return info
	}
	info := it.Command(c)
	if info == nil {
		t.Fatalf("command %v not interned on second sight", c)
	}
	return info
}

func TestDoorkeeperAdmitsOnSecondSight(t *testing.T) {
	it := NewInterner()
	c := Grant("jane", model.User("bob"), model.Role("staff"))
	if info := it.Command(c); info != nil {
		t.Fatalf("first sight interned: %+v", info)
	}
	info := it.Command(c)
	if info == nil {
		t.Fatal("second sight not interned")
	}
	if again := it.Command(c); again != info {
		t.Fatal("later sights returned a different info")
	}
}

func TestFingerprintIdentity(t *testing.T) {
	it := NewInterner()
	a := Grant("jane", model.User("bob"), model.Role("staff"))
	b := Grant("jane", model.User("bob"), model.Role("staff"))
	c := Grant("jane", model.User("bob"), model.Role("staf"))
	ia, ib, ic := intern(t, it, a), intern(t, it, b), intern(t, it, c)
	if ia.FP != ib.FP {
		t.Fatalf("equal commands got fingerprints %d and %d", ia.FP, ib.FP)
	}
	if ia.FP == ic.FP {
		t.Fatalf("distinct commands share fingerprint %d", ia.FP)
	}
	if ia != ib {
		t.Fatal("re-interning returned a different info")
	}
	priv := privilegeOf(t, it, ia)
	pid := it.PrivilegeID(priv)
	if pid == 0 {
		t.Fatal("privilege not internable")
	}
	if got := it.Privilege(pid); !model.SamePrivilege(got, priv) {
		t.Fatalf("privilege round trip: %v != %v", got, priv)
	}
	if got := it.PrivilegeOf(ia); got != it.Privilege(pid) {
		t.Fatalf("PrivilegeOf = %v, want the interned %v", got, priv)
	}
}

// privilegeOf returns an interned command's authorizing privilege, failing
// unless the info says it is well-formed and PrivilegeOf agrees.
func privilegeOf(t *testing.T, it *Interner, info *FPInfo) model.Privilege {
	t.Helper()
	priv, err := info.Cmd.Privilege()
	if err != nil || !info.WellFormed() {
		t.Fatalf("%v: Privilege() error %v, WellFormed %v", info.Cmd, err, info.WellFormed())
	}
	if got := it.PrivilegeOf(info); !model.SamePrivilege(got, priv) {
		t.Fatalf("%v: PrivilegeOf = %v, want %v", info.Cmd, got, priv)
	}
	return priv
}

func TestFingerprintIllFormed(t *testing.T) {
	it := NewInterner()
	// Role source for a UA-shaped edge target: no grammatical privilege.
	bad := Command{Actor: "jane", Op: model.OpGrant, From: model.Perm("read", "t"), To: model.Role("r")}
	info := intern(t, it, bad)
	if info.WellFormed() || it.PrivilegeOf(info) != nil {
		t.Fatalf("ill-formed command minted a privilege: %+v", info)
	}
	if again := it.Command(bad); again.FP != info.FP {
		t.Fatal("ill-formed command fingerprint unstable")
	}
}

func TestFingerprintGrowth(t *testing.T) {
	it := NewInterner()
	const n = 3000 // forces several table growths
	fps := make(map[Fingerprint]Command, n)
	for i := 0; i < n; i++ {
		c := Grant(fmt.Sprintf("u%d", i%7), model.User(fmt.Sprintf("v%d", i)), model.Role("r"))
		info := intern(t, it, c)
		if prev, dup := fps[info.FP]; dup {
			t.Fatalf("fingerprint %d assigned to both %v and %v", info.FP, prev, c)
		}
		fps[info.FP] = c
	}
	// Every command still resolves to its original fingerprint after growth.
	for fp, c := range fps {
		if got := it.Command(c); got.FP != fp {
			t.Fatalf("%v: fingerprint changed %d -> %d across growth", c, fp, got.FP)
		}
	}
	if cmds, _ := it.Len(); cmds != n {
		t.Fatalf("interned %d commands, want %d", cmds, n)
	}
}

// TestCollidingHashes interns 1 600 commands and 1 600 privileges whose
// hashes share their low 9 bits — one probe chain in the first 512-slot
// table, a few long ones after each of three growths. Every entry is found
// again under its own id at every table size, a colliding value that was
// never interned is not found, and the slot tags of a chain tell its entries
// apart: a tag taken from the index bits would be one value for all of them,
// and every probe would load every entry of the chain.
func TestCollidingHashes(t *testing.T) {
	const n, absent, low = 1600, 8, 1<<9 - 1
	var cmds []Command
	var privs []model.Privilege
	for i := 0; len(cmds) < n+absent || len(privs) < n+absent; i++ {
		name := strconv.Itoa(i)
		if c := Grant("jane", model.User(name), model.Role("r")); len(cmds) < n+absent && hashCommand(c)&low == 0 {
			cmds = append(cmds, c)
		}
		var p model.Privilege = model.Grant(model.User(name), model.Role("s"))
		if len(privs) < n+absent && hashVertex(fnvOffset, p)&low == 0 {
			privs = append(privs, p)
		}
	}
	it := NewInterner()
	infos := make([]*FPInfo, n)
	check := func(upto int) {
		t.Helper()
		for j := 0; j < upto; j++ {
			if got := it.Command(cmds[j]); got != infos[j] {
				t.Fatalf("after %d interned: command %d not found", upto, j)
			}
			if got := it.PrivilegeID(privs[j]); got != PrivID(j+1) {
				t.Fatalf("after %d interned: privilege %d has id %d", upto, j, got)
			}
		}
	}
	for i := 0; i < n; i++ {
		infos[i] = intern(t, it, cmds[i])
		if id := it.PrivilegeID(privs[i]); id != PrivID(i+1) {
			t.Fatalf("privilege %d got id %d", i, id)
		}
		if i+1 == 384 || i+1 == 768 || i+1 == 1536 || i+1 == n { // each table size
			check(i + 1)
		}
	}
	for j := n; j < n+absent; j++ {
		if it.findCmd(it.cmds.slots.Load(), hashCommand(cmds[j]), cmds[j]) != nil {
			t.Fatalf("colliding command %v found but never interned", cmds[j])
		}
		if it.findPriv(it.privs.slots.Load(), hashVertex(fnvOffset, privs[j]), privs[j]) != 0 {
			t.Fatalf("colliding privilege %v found but never interned", privs[j])
		}
	}
	for side, tab := range []*slotTable{it.cmds.slots.Load(), it.privs.slots.Load()} {
		tags := map[uint32]bool{}
		for _, v := range tab.slots {
			if v != 0 {
				tags[v>>idBits] = true
			}
		}
		if len(tags) < n/2 {
			t.Fatalf("side %d: %d entries carry only %d distinct tags", side, n, len(tags))
		}
	}
}

// TestChunkOf: the entry-to-chunk mapping is contiguous over [0, 1<<20),
// each chunk twice the size of the one before, and the last chunk holds
// exactly the entries the cap leaves it.
func TestChunkOf(t *testing.T) {
	wantK, wantOff := 0, uint32(0)
	for idx := uint32(0); idx < maxEntries; idx++ {
		if wantOff == chunk0Len<<wantK {
			wantK, wantOff = wantK+1, 0
		}
		if k, off := chunkOf(idx); k != wantK || off != wantOff {
			t.Fatalf("chunkOf(%d) = (%d, %d), want (%d, %d)", idx, k, off, wantK, wantOff)
		}
		wantOff++
	}
	if wantK != numChunks-1 || wantOff != maxEntries-chunk0Len*(1<<(numChunks-1)-1) {
		t.Fatalf("the cap ends at offset %d of chunk %d, want the last of %d chunks", wantOff, wantK, numChunks)
	}
}

// TestChunkBoundaries interns across the first chunk boundaries (63/64,
// 191/192 and 447/448 entries): ids follow interning order, entries never
// move, and every fingerprint and PrivID resolves as it did when minted.
func TestChunkBoundaries(t *testing.T) {
	it := NewInterner()
	infos := make([]*FPInfo, 449)
	for i := range infos {
		infos[i] = intern(t, it, Grant("jane", model.User(fmt.Sprintf("u%d", i)), model.Role("r")))
		if infos[i].FP != Fingerprint(i+1) {
			t.Fatalf("command %d got fingerprint %d", i, infos[i].FP)
		}
		if id := it.PrivilegeID(privilegeOf(t, it, infos[i])); id != PrivID(i+1) {
			t.Fatalf("privilege %d got id %d", i, id)
		}
	}
	for i, info := range infos {
		if it.Command(info.Cmd) != info {
			t.Fatalf("command %d moved or changed fingerprint", i)
		}
		if priv := privilegeOf(t, it, info); it.PrivilegeID(priv) != PrivID(i+1) || !model.SamePrivilege(it.Privilege(PrivID(i+1)), priv) {
			t.Fatalf("privilege %d changed id", i)
		}
	}
}

// TestPrivilegeUnknownIDs: Privilege resolves only published ids — not 0,
// not an id whose chunk is allocated but whose entry is not yet published,
// not one past the cap.
func TestPrivilegeUnknownIDs(t *testing.T) {
	it := NewInterner()
	for i := 0; i <= chunk0Len; i++ { // fills chunk 0 and starts chunk 1
		it.PrivilegeID(model.Grant(model.User(fmt.Sprintf("u%d", i)), model.Role("r")))
	}
	if it.Privilege(chunk0Len+1) == nil {
		t.Fatal("the first entry of chunk 1 does not resolve")
	}
	for _, id := range []PrivID{0, chunk0Len + 2, 3 * chunk0Len, 3*chunk0Len + 1, maxEntries, maxEntries + 1, math.MaxUint32} {
		if p := it.Privilege(id); p != nil {
			t.Fatalf("unknown id %d resolved to %v", id, p)
		}
	}
}

func TestPrivilegeInterning(t *testing.T) {
	it := NewInterner()
	nested := model.Grant(model.Role("a"), model.Grant(model.User("b"), model.Role("c")))
	id := it.PrivilegeID(nested)
	if id == 0 {
		t.Fatal("privilege not interned")
	}
	if it.PrivilegeID(model.Grant(model.Role("a"), model.Grant(model.User("b"), model.Role("c")))) != id {
		t.Fatal("structurally equal privilege got a new id")
	}
	if it.PrivilegeID(model.Revoke(model.Role("a"), model.Grant(model.User("b"), model.Role("c")))) == id {
		t.Fatal("distinct privilege shares an id")
	}
	if it.PrivilegeID(nil) != 0 {
		t.Fatal("nil privilege interned")
	}
	if it.Privilege(0) != nil || it.Privilege(9999) != nil {
		t.Fatal("bogus ids resolved")
	}
}

func TestFingerprintConcurrent(t *testing.T) {
	it := NewInterner()
	const goroutines, per = 8, 400
	var wg sync.WaitGroup
	got := make([][]Fingerprint, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Fingerprint, per)
			for i := 0; i < per; i++ {
				c := Grant("admin", model.User(fmt.Sprintf("u%d", i)), model.Role(fmt.Sprintf("r%d", i%13)))
				info := it.Command(c)
				if info == nil {
					info = it.Command(c) // doorkeeper: admitted on second sight
				}
				if info == nil {
					// Another goroutine may not have pushed it through yet.
					info = it.Command(c)
				}
				got[g][i] = info.FP
				// Privilege ids are minted and resolved concurrently too, and
				// an id another goroutine has yet to publish resolves to nil.
				priv, _ := c.Privilege()
				if got := it.PrivilegeOf(info); !info.WellFormed() || !model.SamePrivilege(got, priv) {
					t.Errorf("%v: PrivilegeOf = %v, want %v", c, got, priv)
				}
				if id := it.PrivilegeID(priv); !model.SamePrivilege(it.Privilege(id), priv) {
					t.Errorf("privilege %d does not round-trip", id)
				}
				if p := it.Privilege(PrivID(i + 2)); p != nil && it.PrivilegeID(p) != PrivID(i+2) {
					t.Errorf("privilege id %d resolved to another's entry", i+2)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d command %d: fp %d != %d", g, i, got[g][i], got[0][i])
			}
		}
	}
	if cmds, _ := it.Len(); cmds != per {
		t.Fatalf("interned %d commands, want %d", cmds, per)
	}
}

// FuzzCommandFingerprint is the satellite fuzz target: for arbitrary pairs
// of commands (including nested administrative privileges as edge targets),
// fingerprints must agree exactly when the commands are structurally equal
// — interning is identity assignment, not hashing, so distinct commands
// must never collide. Each interner starts with 63 fillers, so the pair
// lands on either side of the first chunk boundary.
func FuzzCommandFingerprint(f *testing.F) {
	f.Add("jane", true, "bob", "staff", "x", "y", uint8(0), uint8(1))
	f.Add("jane", true, "bob", "staff", "bob", "staff", uint8(0), uint8(0))
	f.Add("", false, "", "", "", "", uint8(7), uint8(3))
	f.Add("a", true, "b,c", "d(e", "f)g", "h:i", uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, actor string, grant bool, n1, n2, n3, n4 string, shape1, shape2 uint8) {
		c1 := fuzzCommand(actor, grant, n1, n2, shape1)
		c2 := fuzzCommand(actor, grant, n3, n4, shape2)
		it := straddling(t)
		i1, i2 := intern(t, it, c1), intern(t, it, c2)
		same := c1.Key() == c2.Key()
		if (i1.FP == i2.FP) != same {
			t.Fatalf("fp equality %v but key equality %v for %v / %v",
				i1.FP == i2.FP, same, c1, c2)
		}
		// Interning is stable, and a second interner agrees on equality.
		if it.Command(c1).FP != i1.FP || it.Command(c2).FP != i2.FP {
			t.Fatal("fingerprints unstable across re-interning")
		}
		it2 := straddling(t)
		j2, j1 := intern(t, it2, c2), intern(t, it2, c1) // reversed order
		if (j1.FP == j2.FP) != same {
			t.Fatalf("fp equality depends on interning order for %v / %v", c1, c2)
		}
		// The resolved privilege must match what the command derives.
		if priv, err := c1.Privilege(); err == nil {
			if got := it.PrivilegeOf(i1); !i1.WellFormed() || got == nil || got.Key() != priv.Key() {
				t.Fatalf("info privilege %v (well-formed %v) != derived %v", got, i1.WellFormed(), priv)
			}
		} else if i1.WellFormed() || it.PrivilegeOf(i1) != nil {
			t.Fatalf("ill-formed command %v minted a privilege", c1)
		}
	})
}

// fuzzCommand derives a command from fuzz inputs; shape selects the vertex
// sorts and nesting of the edge target.
func fuzzCommand(actor string, grant bool, n1, n2 string, shape uint8) Command {
	op := model.OpRevoke
	if grant {
		op = model.OpGrant
	}
	var from, to model.Vertex
	switch shape % 5 {
	case 0:
		from, to = model.User(n1), model.Role(n2)
	case 1:
		from, to = model.Role(n1), model.Role(n2)
	case 2:
		from, to = model.Role(n1), model.Perm(n1, n2)
	case 3:
		from, to = model.Role(n1), model.Grant(model.User(n1), model.Role(n2))
	default:
		from = model.Role(n1)
		to = model.Grant(model.Role(n2), model.Revoke(model.User(n1), model.Role(n2)))
	}
	return Command{Actor: actor, Op: op, From: from, To: to}
}

// straddling returns an interner holding 63 filler commands: the next two
// commands it interns are the last entry of chunk 0 and the first of chunk 1.
func straddling(t *testing.T) *Interner {
	it := NewInterner()
	for i := 0; i < chunk0Len-1; i++ {
		intern(t, it, Grant("filler", model.User(fmt.Sprintf("f%d", i)), model.Role("filler")))
	}
	return it
}

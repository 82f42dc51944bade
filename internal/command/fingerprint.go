package command

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"adminrefine/internal/decision"
	"adminrefine/internal/model"
)

// This file implements command and privilege fingerprinting: dense integer
// identities assigned once at the system boundary (parse, HTTP decode,
// workload generation) so the per-query authorization kernel never touches a
// string-keyed map. A Fingerprint is an *interned id*, not a hash — two
// commands receive the same fingerprint iff they are structurally identical,
// so fingerprint equality is command equality with no collision risk, and a
// (fingerprint, generation) pair is a sound decision-cache key.
//
// The Interner is a lock-free-read, locked-write open-addressing index over
// chunked entry storage: lookups of already-interned values cost one
// structural hash plus a short probe with zero allocations and no lock,
// which is what keeps the engine's authorize hot path allocation-free.
// First-time interning takes a mutex, fills the entry and publishes it with
// an atomic slot store, so that cost is paid once per distinct command, not
// once per query. A slot holds an entry id and a tag of the hash's top bits,
// so a probe loads only the entries whose tag matches.
//
// Entries live in chunks that never move; chunk k of a side holds 64·2^k
// entries and is allocated when its first entry lands, so storage grows with
// what an engine interns. Growth allocates one chunk and doubles only the
// uint32 slot index: interning never copies or re-clears an entry, *FPInfo
// pointers stay valid forever, and a reader can follow a slot it observed
// without coordination.

// Fingerprint is the dense identity of an interned command. Fingerprints
// start at 1; 0 is never a valid fingerprint.
type Fingerprint uint32

// PrivID is the dense identity of an interned privilege term. PrivIDs start
// at 1; 0 means "no privilege" (denied verdicts, ill-formed commands).
type PrivID uint32

// FPInfo is everything the authorization kernel needs about one interned
// command. FP and Cmd are immutable after publication; the rest is resolved
// on first need and shared by every reader of the interning engine.
type FPInfo struct {
	// FP is the command's fingerprint.
	FP Fingerprint
	// meta holds the well-formed bit and, once the strict path has needed
	// it, the interned id of the authorizing privilege (see PrivilegeOf):
	// one word for both keeps an entry at 96 bytes.
	meta atomic.Uint32
	// Cmd is the interned command.
	Cmd Command

	hash uint64
	// Verdict is the interning engine's cached decision (package decision),
	// beside hash: a hit reads the cache line the lookup just loaded.
	Verdict decision.Verdict

	// Actor, Src and Dst are the graph vertex ids of the command's actor,
	// edge source and edge destination, and PrivV that of its authorizing
	// privilege; -1 until resolved, and PrivV -2-n once the privilege was
	// found absent from a graph of n vertices (see core.Decider.AuthorizeFP).
	// They are kept once per engine, not once per decider: every replica of
	// an engine gives a vertex the same id, so an id resolved on one replica
	// holds on all of them, or names a vertex a lagging one does not have
	// yet.
	Actor, Src, Dst, PrivV atomic.Int32
}

// wellFormed marks, in FPInfo.meta, a command whose authorizing privilege is
// grammatical; the bits below it hold the privilege's PrivID, 0 until
// interned.
const wellFormed = 1 << 31

// WellFormed reports whether some grammatical privilege a(v, v') speaks about
// the command's edge (Definition 5); an ill-formed command is denied in
// every regime.
func (i *FPInfo) WellFormed() bool { return i.meta.Load()&wellFormed != 0 }

// privEntry is one interned privilege term.
type privEntry struct {
	priv model.Privilege
	hash uint64
}

const (
	// idBits holds an entry id in a slot; the bits above it hold the tag.
	idBits = 21
	idMask = 1<<idBits - 1
	// chunk0Bits sizes the first entry chunk (64 entries); chunk k holds
	// 64<<k.
	chunk0Bits = 6
	chunk0Len  = 1 << chunk0Bits
	// maxEntries bounds each interner side so an adversarial stream of
	// distinct commands cannot grow memory without bound; commands beyond
	// the cap are served by the uninterned slow path. Ids fit idBits.
	maxEntries = 1 << 20
	// numChunks covers maxEntries: chunks 0–13 hold all but the last 64
	// entries, and chunk 14 is allocated at just that length.
	numChunks = 15
	// minTableSlots is the initial open-addressing index size.
	minTableSlots = 512
)

// chunkOf maps the entry at index idx to its chunk and its offset there.
// Chunk k starts at 64·(2^k−1), so idx+64 has its top bit at 6+k and the
// offset in the bits below it.
func chunkOf(idx uint32) (k int, off uint32) {
	j := idx + chunk0Len
	top := bits.Len32(j) - 1
	return top - chunk0Bits, j &^ (1 << top)
}

// entries is one side of the interner: the chunked entry storage and the
// open-addressing index over it. chunks[k] is written once, before any of
// its entries is published, and read only through an id loaded atomically
// (a slot, or n), so the id's store orders the write before the read. n
// counts the published entries; it is written under Interner.mu only.
type entries[T any] struct {
	slots  atomic.Pointer[slotTable]
	chunks [numChunks][]T
	n      atomic.Uint32
}

// at returns the entry of a published id (1-based).
func (s *entries[T]) at(id uint32) *T {
	k, off := chunkOf(id - 1)
	return &s.chunks[k][off]
}

// push appends a zeroed entry and returns it with its id, or nil at the cap:
// it doubles the index first when the entry would fill it past 3/4
// (re-indexing by hash), and allocates the entry's chunk when it is the
// chunk's first. The caller fills the entry, then publishes it. Caller holds
// Interner.mu.
func (s *entries[T]) push(hash func(*T) uint64) (*T, uint32) {
	n := s.n.Load()
	if n >= maxEntries {
		return nil, 0
	}
	if old := s.slots.Load(); int(n+1)*4 > len(old.slots)*3 {
		t := &slotTable{slots: make([]uint32, len(old.slots)*2)}
		for id := uint32(1); id <= n; id++ {
			storeSlot(t, hash(s.at(id)), id)
		}
		s.slots.Store(t)
	}
	k, off := chunkOf(n)
	if off == 0 {
		s.chunks[k] = make([]T, min(chunk0Len<<k, maxEntries-n))
	}
	return &s.chunks[k][off], n + 1
}

// publish makes the filled entry id visible to lock-free readers: the
// atomic stores of its slot and of n order them after every write that
// filled it. Caller holds Interner.mu.
func (s *entries[T]) publish(h uint64, id uint32) {
	storeSlot(s.slots.Load(), h, id)
	s.n.Store(id)
}

// Interner assigns fingerprints to commands and ids to privilege terms.
// All methods are safe for concurrent use; lookups of already-interned
// values are lock-free and allocation-free.
//
// Admission is gated by a doorkeeper (the TinyLFU idea): a command is only
// interned on its *second* sight. Interned state is immortal — an entry, its
// slot and its vertex resolutions — so admitting
// single-use commands would grow the live heap (and the GC's marking bill)
// linearly with traffic while the cache never hits. First sight marks two
// bits of the command's structural hash in a compact filter and reports
// "not interned"; callers fall back to the uninterned decision path
// (core.Decider.HeldStronger / Holds), which keeps nothing either: a refined
// decision is two entity lookups and closure bit tests on vertex ids, with
// no term interned, no memo entry and no allocation (the strict one still
// builds the privilege's key for its vertex lookup). Repeated commands — the
// only ones a cache can ever help — pay one extra uninterned decision and
// are fully resolved from then on. The filter ages by
// resetting once an eighth of its bits are set, so a long-lived engine's
// doorkeeper never saturates into admitting everything.
type Interner struct {
	mu    sync.Mutex
	cmds  entries[FPInfo]
	privs entries[privEntry]
	door  atomic.Pointer[doorkeeper]
}

// doorBits sizes the doorkeeper filter (2^17 bits = 16 KiB): two bits per
// sighted command keeps the false-admission rate low into the tens of
// thousands of distinct one-shot commands between resets.
const doorBits = 1 << 17

// doorkeeper is a compact atomic Bloom filter over structural command
// hashes. seen returns whether both probe bits were already set, setting
// them as a side effect; sets counts newly-set bits to drive aging.
type doorkeeper struct {
	bits [doorBits / 64]atomic.Uint64
	sets atomic.Int64
}

func (d *doorkeeper) seen(h uint64) bool {
	i1 := uint32(h) % doorBits
	i2 := uint32(h>>32) % doorBits
	newly := int64(0)
	if setBit(&d.bits[i1/64], uint64(1)<<(i1%64)) {
		newly++
	}
	if setBit(&d.bits[i2/64], uint64(1)<<(i2%64)) {
		newly++
	}
	if newly != 0 {
		d.sets.Add(newly)
	}
	return newly == 0
}

// setBit sets m in w, reporting whether it was newly set. Implemented as a
// load + CAS loop rather than atomic.Uint64.Or: go1.24.0 miscompiles two
// consecutive value-returning Or intrinsics (the first CAS loop clobbers
// the register holding the receiver base before the second address is
// formed), and the load-first shape is what this call site wants anyway —
// the common already-set case stays read-only.
func setBit(w *atomic.Uint64, m uint64) (newly bool) {
	for {
		old := w.Load()
		if old&m != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|m) {
			return true
		}
	}
}

// slotTable is one generation of an open-addressing index: values are entry
// ids (index+1 into the chunked storage, 0 = empty) in the low idBits, under
// the tag of the entry's hash, written with atomic stores after the
// corresponding entry is fully populated, so a reader that observes a slot
// observes a complete entry.
type slotTable struct {
	slots []uint32
}

// slotTag is the tag h's entry carries in its slot: the hash's top bits,
// which the index (taken from the low bits) does not already share.
func slotTag(h uint64) uint32 { return uint32(h>>(64-(32-idBits))) << idBits }

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	it := &Interner{}
	it.cmds.slots.Store(&slotTable{slots: make([]uint32, minTableSlots)})
	it.privs.slots.Store(&slotTable{slots: make([]uint32, minTableSlots)})
	it.door.Store(&doorkeeper{})
	return it
}

// Command returns the info of an interned command, interning c when the
// doorkeeper has seen it before. The hit path is lock-free and
// allocation-free. Returns nil — callers must then fall back to uninterned
// authorization — on a command's first sight, and permanently once the
// interner is at capacity.
func (it *Interner) Command(c Command) *FPInfo {
	h := hashCommand(c)
	if info := it.findCmd(it.cmds.slots.Load(), h, c); info != nil {
		return info
	}
	d := it.door.Load()
	if d.sets.Load() > doorBits/8 {
		// Age the filter *before* consulting it — a stream of single-use
		// commands must keep resetting the filter, or its saturation would
		// fake "second sights" and admit the whole stream.
		it.ageDoorkeeper(d)
		d = it.door.Load()
	}
	if !d.seen(h) {
		return nil // first sight: not worth immortal interned state yet
	}
	return it.internCommand(h, c)
}

// ageDoorkeeper swaps in a fresh filter once the current one fills past an
// eighth of its bits (≤ ~1.5% false-admission rate), bounding spurious
// interning on long-lived engines. Sighted-once commands forgotten by the
// reset simply pay one more slow decision before admission.
func (it *Interner) ageDoorkeeper(old *doorkeeper) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.door.Load() == old {
		it.door.Store(&doorkeeper{})
	}
}

func (it *Interner) findCmd(t *slotTable, h uint64, c Command) *FPInfo {
	mask, tag := uint32(len(t.slots)-1), slotTag(h)
	for i, n := uint32(h)&mask, 0; n < len(t.slots); i, n = (i+1)&mask, n+1 {
		v := atomic.LoadUint32(&t.slots[i])
		if v == 0 {
			return nil
		}
		if v&^idMask != tag {
			continue
		}
		info := it.cmds.at(v & idMask)
		if info.hash == h && equalCommand(info.Cmd, c) {
			return info
		}
	}
	return nil
}

func (it *Interner) internCommand(h uint64, c Command) *FPInfo {
	it.mu.Lock()
	defer it.mu.Unlock()
	if info := it.findCmd(it.cmds.slots.Load(), h, c); info != nil {
		return info
	}
	info, id := it.cmds.push(func(e *FPInfo) uint64 { return e.hash })
	if info == nil {
		return nil
	}
	info.FP, info.Cmd, info.hash = Fingerprint(id), c, h
	if _, err := c.Privilege(); err == nil {
		info.meta.Store(wellFormed)
	}
	info.Actor.Store(-1)
	info.Src.Store(-1)
	info.Dst.Store(-1)
	info.PrivV.Store(-1)
	it.cmds.publish(h, id)
	return info
}

// storeSlot publishes id, under h's tag, at h's probe position. Caller holds
// it.mu.
func storeSlot(t *slotTable, h uint64, id uint32) {
	mask := uint32(len(t.slots) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		if t.slots[i] == 0 {
			atomic.StoreUint32(&t.slots[i], id|slotTag(h))
			return
		}
	}
}

// PrivilegeOf returns the authorizing privilege of a well-formed interned
// command, nil for an ill-formed one. The privilege is interned on first
// need and its id kept in info, so the strict path's justification is boxed
// once per engine, not once per decision.
func (it *Interner) PrivilegeOf(info *FPInfo) model.Privilege {
	if id := PrivID(info.meta.Load() &^ wellFormed); id != 0 {
		return it.Privilege(id)
	}
	p, err := info.Cmd.Privilege()
	if err != nil {
		return nil
	}
	id := it.PrivilegeID(p)
	if id == 0 {
		return p // the privilege side is full
	}
	info.meta.Store(wellFormed | uint32(id))
	return it.Privilege(id)
}

// PrivilegeID interns p (or finds it) and returns its id; 0 for nil p or a
// full table. The hit path is lock-free and allocation-free.
func (it *Interner) PrivilegeID(p model.Privilege) PrivID {
	if p == nil {
		return 0
	}
	h := hashVertex(fnvOffset, p)
	if id := it.findPriv(it.privs.slots.Load(), h, p); id != 0 {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.internPrivLocked(p)
}

func (it *Interner) findPriv(t *slotTable, h uint64, p model.Privilege) PrivID {
	mask, tag := uint32(len(t.slots)-1), slotTag(h)
	for i, n := uint32(h)&mask, 0; n < len(t.slots); i, n = (i+1)&mask, n+1 {
		v := atomic.LoadUint32(&t.slots[i])
		if v == 0 {
			return 0
		}
		if v&^idMask != tag {
			continue
		}
		if e := it.privs.at(v & idMask); e.hash == h && equalVertex(e.priv, p) {
			return PrivID(v & idMask)
		}
	}
	return 0
}

// internPrivLocked interns p under it.mu.
func (it *Interner) internPrivLocked(p model.Privilege) PrivID {
	h := hashVertex(fnvOffset, p)
	if id := it.findPriv(it.privs.slots.Load(), h, p); id != 0 {
		return id
	}
	e, id := it.privs.push(func(e *privEntry) uint64 { return e.hash })
	if e == nil {
		return 0
	}
	e.priv, e.hash = p, h
	it.privs.publish(h, id)
	return PrivID(id)
}

// Privilege returns the boxed privilege for an id minted by PrivilegeID (or
// carried in an FPInfo); nil for 0 or unknown ids. Lock-free.
func (it *Interner) Privilege(id PrivID) model.Privilege {
	if id == 0 || uint32(id) > it.privs.n.Load() {
		return nil
	}
	return it.privs.at(uint32(id)).priv
}

// Len reports how many distinct commands and privileges are interned.
func (it *Interner) Len() (cmds, privs int) {
	return int(it.cmds.n.Load()), int(it.privs.n.Load())
}

// --- structural hashing and equality (allocation-free) ---------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	// Fold 8 bytes per multiply (FNV-1a over words, not bytes): the hot path
	// hashes every query's actor and vertex names, so halving the multiply
	// count matters more than byte-exact FNV compatibility.
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = (h ^ w) * fnvPrime
	}
	for ; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	// Fold in the length and terminate so ("ab","c") and ("a","bc") differ
	// and the word/byte boundary cannot alias across strings.
	return hashByte(h^uint64(len(s)), 0xFF)
}

func hashCommand(c Command) uint64 {
	h := hashString(fnvOffset, c.Actor)
	h = hashByte(h, byte(c.Op))
	h = hashVertex(h, c.From)
	return hashVertex(h, c.To)
}

// hashVertex folds a vertex structurally, walking nested privileges without
// building canonical key strings.
func hashVertex(h uint64, v model.Vertex) uint64 {
	switch t := v.(type) {
	case nil:
		return hashByte(h, 'n')
	case model.Entity:
		return hashString(hashByte(hashByte(h, 'e'), byte(t.Kind)), t.Name)
	case model.UserPrivilege:
		return hashString(hashString(hashByte(h, 'q'), t.Action), t.Object)
	case model.AdminPrivilege:
		h = hashByte(hashByte(h, 'a'), byte(t.Op))
		// Hash Src inline: passing the concrete Entity through the Vertex
		// parameter would box it (and the default branch's Key() call makes
		// the parameter escape), costing one heap allocation per level.
		h = hashString(hashByte(hashByte(h, 'e'), byte(t.Src.Kind)), t.Src.Name)
		return hashVertex(h, t.Dst)
	default:
		// Foreign Vertex implementations never occur on the hot path; fall
		// back to the canonical key (allocates).
		return hashString(hashByte(h, '?'), v.Key())
	}
}

func equalCommand(a, b Command) bool {
	return a.Actor == b.Actor && a.Op == b.Op &&
		equalVertex(a.From, b.From) && equalVertex(a.To, b.To)
}

// equalVertex is structural vertex equality without key construction: the
// allocation-free equivalent of model.SameVertex for the model's own types.
func equalVertex(a, b model.Vertex) bool {
	switch at := a.(type) {
	case nil:
		return b == nil
	case model.Entity:
		bt, ok := b.(model.Entity)
		return ok && at == bt
	case model.UserPrivilege:
		bt, ok := b.(model.UserPrivilege)
		return ok && at == bt
	case model.AdminPrivilege:
		bt, ok := b.(model.AdminPrivilege)
		return ok && at.Op == bt.Op && at.Src == bt.Src && equalVertex(at.Dst, bt.Dst)
	default:
		return b != nil && model.SameVertex(a, b)
	}
}

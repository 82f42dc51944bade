// Package storage persists policy state durably: a snapshot of the policy
// plus a write-ahead log of applied administrative commands. It serves two
// consumers. A single-node caller appends each step it applied with
// Store.AppendStep, and Open recovers the policy by loading the snapshot and
// replaying the log. The snapshot engine attaches through OpenEngine, which
// recovers an engine.Engine at the logged generation and installs a commit
// hook so every applied command is durable before its snapshot is published
// (write-ahead at the engine boundary — the multi-tenant service in
// internal/tenant runs one such store per tenant). Compaction writes a fresh
// snapshot and truncates the log; SinceCompact exposes the log growth so
// callers can trigger compaction on a budget.
//
// Log format v2: a fixed header followed by records, each in the frame of
// internal/command,
//
//	"ARWAL2\n" | rec* , rec = len(u32 LE) | crc32(u32 LE, IEEE) | payload
//
// where payload is a Record's binary form (EncodeFrame), its command the very
// bytes the wire plane carries. A torn tail (incomplete or corrupt final
// record, e.g. after a crash mid-append) is detected by the CRC and truncated
// away on open; Recovery reports how many bytes were dropped. A v1 log —
// "ARWAL1\n" and JSON payloads, as stores wrote before this format — still
// opens: a payload starting with '{' decodes as that JSON, and Open flips the
// magic to v2 (fsynced) before anything is appended, so an older binary
// refuses the mixed log rather than truncate it at the first binary record.
//
// Snapshot format (snapshot.bin): one frame of the same shape behind its own
// magic,
//
//	"ARSNAP1\n" | len(u32 LE) | crc32(u32 LE, IEEE) | body
//	body = uvarint seq | seq-epoch | epoch | len placement | placement | policy
//
// where policy is policy.AppendBinary's form (the vertex table in graph-id
// order, then the edges as id lists). Open reads the file once and loads the
// graph as written — no parse tree, no sort, no key built. A file whose magic,
// length or checksum is off, or whose body does not decode to the last byte,
// is a corrupt snapshot: Open fails with no store and no policy, and never
// passes it over for a snapshot.json beside it, which could only be older.
// That file — the JSON of snapshotMeta — is what stores wrote before this
// format; Open reads it only when there is no snapshot.bin, and the next
// compaction writes snapshot.bin and removes it.
package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"adminrefine/internal/command"
	"adminrefine/internal/engine"
	"adminrefine/internal/policy"
)

// The log's magics (see the package comment).
const (
	logMagic   = "ARWAL2\n"
	logMagicV1 = "ARWAL1\n"
)

// The snapshot file, its magic, and the file name older stores wrote.
const (
	snapshotFile       = "snapshot.bin"
	snapshotMagic      = "ARSNAP1\n"
	legacySnapshotFile = "snapshot.json"
)

// Recovery summarises what Open found on disk.
type Recovery struct {
	// SnapshotLoaded reports whether a snapshot file existed.
	SnapshotLoaded bool
	// Records is the number of log records replayed.
	Records int
	// Applied is the number of replayed records that mutated the policy.
	Applied int
	// AuditRecords is the number of audit records recovered into the audit
	// log (they are collected, never replayed).
	AuditRecords int `json:",omitempty"`
	// DroppedBytes counts torn-tail bytes truncated from the log.
	DroppedBytes int
}

// File is the slice of *os.File the WAL needs. The default path opens real
// files; tests substitute a fault-injecting implementation through
// Options.OpenFile (see internal/fault) — the production path pays only the
// interface dispatch.
type File interface {
	io.ReadWriteSeeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
}

// Options configures a Store.
type Options struct {
	// Sync forces an fsync after every append (slow, durable). Default off.
	Sync bool
	// OpenFile, when non-nil, opens the WAL file instead of os.OpenFile —
	// the deterministic fault-injection seam (see internal/fault). Snapshot
	// files are written atomically via temp-file + rename and are not routed
	// through it.
	OpenFile func(path string, flag int, perm os.FileMode) (File, error)
}

// ErrDamaged marks a store wedged by an unrepaired write failure: a WAL
// append failed and the truncate restoring the last known-good offset failed
// too, so the on-disk suffix is untrusted. Every later append or compaction
// fails fast with it; recovery is a reopen (which re-reads the file and
// truncates the torn tail).
var ErrDamaged = errors.New("storage: wal damaged by earlier write failure")

// Store is a directory-backed policy store: snapshot.bin + wal.log.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	f    File
	seq  int
	// off is the file offset one past the last fully landed frame — the
	// truncation point that repairs a torn write. durable trails it: one past
	// the last frame a completed sync covered, the truncation point that
	// repairs a failed fsync (bytes of unknown durability; see syncLocked).
	// landed holds the records in between, which the bookkeeping below does
	// not count yet: seq, tail and audit only ever describe synced frames.
	off, durable int64
	landed       []Record
	// damaged is set when that repair itself failed; see ErrDamaged.
	damaged bool
	// epoch is the durable fencing epoch: the highest KindEpoch control
	// record in the log (or snapshot meta). Only the node-level store (see
	// cmd/rbacd) writes these; per-tenant stores leave it zero.
	epoch uint64
	// stampEpoch is the in-memory epoch stamped onto locally minted step and
	// audit records (SetStampEpoch). The registry syncs it from the node
	// epoch before writes; replication apply sets it per pulled-record run
	// so replicated records keep the epoch the primary stamped.
	stampEpoch uint64
	// lastEpoch is the epoch of the step record at seq (== the snapshot's
	// epoch when the log holds no steps) — the follower's half of the
	// prefix-validation check (see EpochAt).
	lastEpoch uint64
	// snapEpoch is the epoch of the record the on-disk snapshot covers
	// (snapshotMeta.SeqEpoch).
	snapEpoch uint64
	// snapBase is the sequence number the on-disk snapshot covers; the log
	// holds exactly the records in (snapBase, seq]. A replication pull for
	// records at or below snapBase cannot be served from the log — the
	// follower needs a snapshot bootstrap (see ReadSince).
	snapBase int
	// tail caches the most recent records in memory (capped at maxTail,
	// invariant: every record with Seq in (tailBase, seq], whether or not a
	// head compaction already truncated it from the file), so the
	// replication hot path — followers pulling at or near the head — never
	// re-reads the log file and survives compactions without snapshot
	// bootstraps. ReadSince falls back to the file only for a position older
	// than tailBase but still at or above snapBase.
	tail     []Record
	tailBase int
	// audit is the in-memory recent-audit log (capped at maxAudit): every
	// audit record appended or recovered, in append order. It survives head
	// compactions like the record tail does; the durable window on disk is
	// bounded by compaction (a compaction folds the log, audit records
	// included, into the snapshot).
	audit []Record
	// auditTotal counts every audit record ever seen by this store instance
	// (recovered + appended), so consumers can detect ring truncation.
	auditTotal uint64
	// lastASeq is the highest audit index assigned or recovered; appends
	// continue from it.
	lastASeq uint64
	// placement is the payload of the most recent KindPlacement control
	// record (or the snapshot meta's copy), nil when none was ever adopted.
	// Like epoch it is node state: only the node-level store writes it.
	placement []byte
	// sinceCompact counts log records written since the last compaction
	// (records already in the log at Open count too): the compaction-trigger
	// signal.
	sinceCompact int
	// staged buffers records accepted by StageCommit but not yet landed by
	// the commit flush — the group-commit window. Nothing in it is durable or
	// acknowledged; a flush failure simply drops it.
	staged []Record
}

// maxAudit caps the in-memory recent-audit log.
const maxAudit = 1024

// maxTail caps the in-memory record tail; with the default compaction
// budget the whole log fits.
const maxTail = 2048

// snapshotMeta wraps the policy snapshot with its log position: the header
// fields of snapshot.bin and, as JSON, the whole of a legacy snapshot.json.
type snapshotMeta struct {
	Seq int `json:"seq"`
	// SeqEpoch is the fencing epoch of the record at Seq — kept so a store
	// whose log was compacted (or installed from a snapshot) can still
	// answer EpochAt(SnapBase) and stamp its replication position.
	SeqEpoch uint64 `json:"seq_epoch,omitempty"`
	// Epoch is the durable fencing epoch at compaction time (see
	// Store.Epoch); folding it into the snapshot keeps it recoverable even
	// if every KindEpoch control record was truncated with the log.
	Epoch uint64 `json:"epoch,omitempty"`
	// Placement is the adopted placement map at compaction time (see
	// Store.Placement), kept recoverable across log truncation exactly like
	// Epoch.
	Placement json.RawMessage `json:"placement,omitempty"`
	Policy    policy.Wire     `json:"policy"`
}

// encodeSnapshot returns the bytes of a snapshot.bin (meta.Policy unused).
func encodeSnapshot(meta snapshotMeta, p *policy.Policy) ([]byte, error) {
	return command.AppendFrame(append(make([]byte, 0, 4096), snapshotMagic...), math.MaxInt32, func(b []byte) ([]byte, error) {
		for _, v := range []uint64{uint64(meta.Seq), meta.SeqEpoch, meta.Epoch, uint64(len(meta.Placement))} {
			b = binary.AppendUvarint(b, v)
		}
		return p.AppendBinary(append(b, meta.Placement...)), nil
	})
}

// decodeSnapshot is the inverse of encodeSnapshot. Any deviation is an error
// and yields no policy; arbitrary input never panics (FuzzSnapshotDecode).
func decodeSnapshot(data []byte) (snapshotMeta, *policy.Policy, error) {
	var meta snapshotMeta
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return meta, nil, errors.New("bad header")
	}
	body, n, ok, err := command.NextFrame(data[len(snapshotMagic):], math.MaxInt32)
	if err != nil || !ok || len(snapshotMagic)+n != len(data) {
		return meta, nil, errors.New("length or checksum mismatch")
	}
	rd := command.NewReader(body)
	seq := rd.Uvarint()
	meta.SeqEpoch, meta.Epoch = rd.Uvarint(), rd.Uvarint()
	placement, rest := rd.Bytes(), rd.Rest()
	if rd.Err() != nil || seq > math.MaxInt {
		return meta, nil, errors.New("bad header field")
	}
	meta.Seq = int(seq)
	if len(placement) > 0 {
		meta.Placement = append([]byte(nil), placement...)
	}
	pol, err := policy.DecodeBinary(rest)
	return meta, pol, err
}

// Open opens (or initialises) the store in dir, returning the recovered
// policy. The policy starts empty when the directory holds no state.
func Open(dir string, opts Options) (*Store, *policy.Policy, Recovery, error) {
	var rec Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, rec, err
	}
	// Load the snapshot if present: snapshot.bin, or the snapshot.json of a
	// directory no compaction has upgraded yet.
	meta, pol, err := loadSnapshot(dir)
	if err != nil {
		return nil, nil, rec, err
	}
	rec.SnapshotLoaded = pol != nil
	if pol == nil {
		pol = policy.New()
	}
	seq, epoch, snapEpoch := meta.Seq, meta.Epoch, meta.SeqEpoch
	placementData := []byte(meta.Placement)
	snapSeq := seq

	// Replay the log.
	openFile := opts.OpenFile
	if openFile == nil {
		openFile = func(path string, flag int, perm os.FileMode) (File, error) {
			return os.OpenFile(path, flag, perm)
		}
	}
	logPath := filepath.Join(dir, "wal.log")
	f, err := openFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, rec, err
	}
	// The scan leaves the offset at the end of the file, which is the append
	// position unless a torn tail has to go first.
	validEnd, size, records, err := readAll(f)
	if err == nil && size > validEnd {
		rec.DroppedBytes = int(size - validEnd)
		if err = f.Truncate(validEnd); err == nil {
			_, err = f.Seek(validEnd, io.SeekStart)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, rec, err
	}
	var auditRecs []Record
	lastEpoch := snapEpoch
	ctrlRecs := 0
	for _, r := range records {
		if r.Kind == KindEpoch {
			// Fencing-epoch control records: adopt the highest, replay
			// nothing.
			if r.Epoch > epoch {
				epoch = r.Epoch
			}
			ctrlRecs++
			continue
		}
		if r.Kind == KindPlacement {
			// Placement control records: the last in file order wins (appends
			// are version-ordered; see SetPlacement), replay nothing.
			placementData = r.Data
			ctrlRecs++
			continue
		}
		if r.IsAudit() {
			// Audit records are observations, not effects: collect them for
			// the audit log before the sequence filter (they share their
			// step's sequence number) and never replay them.
			auditRecs = append(auditRecs, r)
			rec.AuditRecords++
			continue
		}
		if r.Seq <= seq {
			continue // already covered by the snapshot
		}
		rec.Records++
		if r.Outcome == command.Applied || r.Outcome == command.AppliedNoChange {
			changed, err := command.Apply(pol, r.Cmd)
			if err != nil {
				f.Close()
				return nil, nil, rec, fmt.Errorf("storage: replaying record %d: %w", r.Seq, err)
			}
			if changed {
				rec.Applied++
			}
		}
		seq = r.Seq
		lastEpoch = r.Epoch
	}

	// Seed the compaction trigger with the step records only: the log also
	// carries the re-appended audit window (see compactLocked) and control
	// records, and counting those would re-trigger a full compaction on the
	// first submit after every restart of a store with a populated window.
	s := &Store{dir: dir, opts: opts, f: f, seq: seq, snapBase: snapSeq,
		off: validEnd, durable: validEnd, epoch: epoch, stampEpoch: lastEpoch,
		lastEpoch: lastEpoch, snapEpoch: snapEpoch, placement: placementData,
		sinceCompact: len(records) - len(auditRecs) - ctrlRecs}
	// Seed the in-memory tail with the decoded log (records at or below
	// snapBase, if a crash mid-compaction left any, are filtered at serve
	// time exactly as the file path would; epoch control records never enter
	// the replication stream).
	s.tailBase = snapSeq
	for _, r := range records {
		if !r.IsControl() {
			s.appendTailLocked(r)
		}
	}
	for _, r := range auditRecs {
		// Records persisted before the audit index existed are indexed in
		// file order; persisted indexes are preserved (cursor stability).
		if r.ASeq == 0 {
			r.ASeq = s.lastASeq + 1
		}
		s.appendAuditLocked(r)
	}
	return s, pol, rec, nil
}

// loadSnapshot reads dir's snapshot, returning a nil policy when it has none.
// A snapshot.bin that is present decides alone, corrupt or not.
func loadSnapshot(dir string) (meta snapshotMeta, pol *policy.Policy, err error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err == nil {
		if meta, pol, err = decodeSnapshot(data); err != nil {
			return meta, nil, fmt.Errorf("storage: corrupt snapshot: %w", err)
		}
		return meta, pol, nil
	}
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join(dir, legacySnapshotFile))
	}
	if os.IsNotExist(err) {
		return meta, nil, nil
	} else if err != nil {
		return meta, nil, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, nil, fmt.Errorf("storage: corrupt snapshot: %w", err)
	}
	if pol, err = meta.Policy.Policy(); err != nil {
		return meta, nil, fmt.Errorf("storage: corrupt snapshot policy: %w", err)
	}
	return meta, pol, nil
}

// appendAuditLocked adds one record (its ASeq already assigned) to the
// in-memory audit log, trimming the oldest half past the cap. Caller holds
// s.mu (or owns s exclusively).
func (s *Store) appendAuditLocked(r Record) {
	if r.ASeq > s.lastASeq {
		s.lastASeq = r.ASeq
	}
	s.audit = append(s.audit, r)
	s.auditTotal++
	if len(s.audit) > maxAudit {
		drop := len(s.audit) / 2
		s.audit = append(s.audit[:0], s.audit[drop:]...)
	}
}

// appendTailLocked adds one record to the in-memory tail, trimming the
// oldest half past the cap. Caller holds s.mu (or owns s exclusively).
func (s *Store) appendTailLocked(r Record) {
	s.tail = append(s.tail, r)
	if len(s.tail) > maxTail {
		drop := len(s.tail) / 2
		s.tailBase = s.tail[drop-1].Seq
		s.tail = append(s.tail[:0], s.tail[drop:]...)
	}
}

// OpenEngine opens the store and stands a snapshot engine up on the
// recovered policy: the engine starts at the recovered generation (the
// highest logged sequence number) and gets the group-commit hook pair — the
// per-command hook stages every applied command's step + audit records, and
// the commit flush lands the whole submission's staged records with one
// write and one fsync before its snapshot is published. A crash at any point
// recovers, via OpenEngine, to exactly the decisions the last published
// snapshot served, audit trail included. The engine takes ownership of the
// recovered policy; close the store only after the engine stops submitting.
func OpenEngine(dir string, mode engine.Mode, opts Options) (*Store, *engine.Engine, Recovery, error) {
	s, pol, rec, err := Open(dir, opts)
	if err != nil {
		return nil, nil, rec, err
	}
	return s, s.NewEngine(pol, mode, true), rec, nil
}

// NewEngine is OpenEngine's second half, for callers that supply the policy
// (an install) or switch the verdict store (see engine.NewAt) themselves.
func (s *Store) NewEngine(pol *policy.Policy, mode engine.Mode, cached bool) *engine.Engine {
	eng := engine.NewAt(pol, mode, uint64(s.Seq()), cached)
	eng.SetCommitHook(func(gen uint64, res command.StepResult) error {
		return s.StageCommit(int(gen), res)
	})
	eng.SetCommitFlush(s.flushStaged)
	return eng
}

// readAll parses records from the start of the log, returning the offset of
// the end of the last valid record and the file's size. A missing or wrong
// magic on a non-empty file is an error; a torn tail simply ends the scan.
func readAll(f File) (validEnd, size int64, records []Record, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(data) == 0 {
		// Fresh log: write the magic.
		_, err := f.Write([]byte(logMagic))
		return int64(len(logMagic)), int64(len(logMagic)), nil, err
	}
	magic := string(data[:min(len(data), len(logMagic))])
	if magic != logMagic && magic != logMagicV1 {
		return 0, 0, nil, fmt.Errorf("storage: wal.log has no valid header")
	}
	if magic == logMagicV1 {
		// Flip to v2, durably, before anything is appended: an older binary
		// then refuses the log instead of truncating its first binary record
		// as a torn tail.
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			_, err = f.Write([]byte(logMagic))
		}
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			_, err = f.Seek(0, io.SeekEnd)
		}
		if err != nil {
			return 0, 0, nil, err
		}
	}
	n, records := DecodeFrames(data[len(logMagic):])
	return int64(len(logMagic) + n), int64(len(data)), records, nil
}

// NewStepRecord converts an engine step result into a loggable record at the
// given sequence number (the engine generation the step produced).
func NewStepRecord(seq int, res command.StepResult) Record {
	return Record{Seq: seq, Cmd: res.Cmd, Outcome: res.Outcome}
}

// NewAuditRecord converts an engine step result into the audit observation
// of the command at the given sequence number: the engine generation after
// the command for applied steps, the unchanged generation otherwise. reason
// carries a veto explanation (e.g. an SSD violation) on denied commands.
func NewAuditRecord(seq int, res command.StepResult, reason string) Record {
	r := NewStepRecord(seq, res)
	r.Kind, r.Reason = KindAudit, reason
	return r
}

// AppendStep logs one engine step result — the engine commit hook. Safe for
// concurrent use.
func (s *Store) AppendStep(seq int, res command.StepResult) error {
	return s.AppendRecord(NewStepRecord(seq, res))
}

// StageCommit buffers one applied engine step — its step record plus its
// audit record, which land in one write so a crash truncates to a CRC-valid
// prefix: nothing, the step alone, or both — for the next FlushStaged. It
// performs no file I/O: the per-command half of group commit, run from the
// engine's CommitHook while the covering flush hook amortises the write and
// fsync across every command (and every submitter) in the group. The records
// are not durable, and the step must not be acknowledged, until FlushStaged
// returns nil. Safe for concurrent use, though the engine already serialises
// stage/flush pairs under its writer lock.
func (s *Store) StageCommit(seq int, res command.StepResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	s.staged = append(s.staged, NewStepRecord(seq, res), NewAuditRecord(seq, res, ""))
	return nil
}

// FlushStaged lands every staged record with one file write and syncs it (one
// fsync under Options.Sync) — the group half of group commit. The records are
// epoch-stamped and audit-indexed at flush time, in stage order. On failure
// the staged buffer is discarded and the log has already been truncated back
// to the last known-good frame boundary, so the on-disk state is exactly as
// if the group never happened — the engine turns that into a rollback of
// every command the group covered. A flush with nothing staged is a no-op.
// Safe for concurrent use.
func (s *Store) FlushStaged() error { return s.flushStaged(true) }

// flushStaged is the engine's commit flush (see engine.SetCommitFlush). With
// sync false it stops after the write: the replica's order, where the caller
// publishes first and owes the covering Sync before it reports the position.
func (s *Store) flushStaged(sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.staged) == 0 {
		return nil
	}
	recs := s.staged
	s.staged = nil
	err := s.landLocked(true, recs...)
	if err == nil && sync {
		err = s.syncLocked(false)
	}
	return err
}

// Sync completes the durability step for everything landed and not yet
// synced, and only then moves Seq, the tail and the audit log over it. On
// failure the log is back at the last synced frame and the landed records are
// gone, uncounted: a caller that already published them is out of sync with
// its own log and must reinstall (see tenant.ApplyReplicated).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off == s.durable {
		return nil
	}
	return s.syncLocked(false)
}

// AppendAudit logs the audit observation of a command that did not change
// the policy (denied, vetoed, no-change or ill-formed) at the current
// sequence number. Safe for concurrent use.
func (s *Store) AppendAudit(seq int, res command.StepResult, reason string) error {
	return s.AppendRecord(NewAuditRecord(seq, res, reason))
}

// AppendRecord logs one locally minted record with length-prefix + CRC
// framing, stamping it with the store's current epoch. Safe for concurrent
// use.
func (s *Store) AppendRecord(r Record) error {
	return s.appendRecords(true, r)
}

// AppendRecords logs a batch of records in a single file write (one fsync
// under Options.Sync) — the bulk path for adopting a replicated audit
// window, where per-record appends would multiply bootstrap latency. The
// records keep the epochs their origin node stamped. Safe for concurrent
// use.
func (s *Store) AppendRecords(records ...Record) error {
	if len(records) == 0 {
		return nil
	}
	return s.appendRecords(false, records...)
}

// appendRecords frames every record into one buffer, lands them with a
// single write and syncs them; only then do they count (see syncLocked).
// Audit records are (re)assigned this store's next audit index before
// encoding, so the persisted frame carries the same node-local pagination
// cursor the in-memory log serves — incoming indexes from another node
// (replicated denials, adopted bootstrap windows) are re-indexed here.
// stamp marks locally minted records, whose Epoch becomes the store's stamp
// epoch; records arriving from another node keep the epoch their primary
// stamped (the prefix-validation invariant EpochAt depends on).
func (s *Store) appendRecords(stamp bool, records ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.landLocked(stamp, records...)
	if err == nil {
		err = s.syncLocked(false)
	}
	return err
}

// landLocked frames the records and lands them with one write(2). They wait
// in s.landed, uncounted, for the sync that covers them. Caller holds s.mu.
func (s *Store) landLocked(stamp bool, records ...Record) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	var buf []byte
	var err error
	next := s.lastASeq
	for i := len(s.landed) - 1; i >= 0; i-- {
		if s.landed[i].IsAudit() {
			next = s.landed[i].ASeq
			break
		}
	}
	for i := range records {
		if records[i].IsAudit() {
			next++
			records[i].ASeq = next
		}
		if stamp {
			records[i].Epoch = s.stampEpoch
		}
		if buf, err = EncodeFrame(buf, records[i]); err != nil {
			return err
		}
	}
	if err := s.writeLocked(buf); err != nil {
		return err
	}
	if s.landed == nil {
		s.landed = records // ours until the sync: staged records, or a caller blocked in this append
	} else {
		s.landed = append(s.landed, records...)
	}
	return nil
}

// writableLocked reports whether the store can take appends. Caller holds
// s.mu.
func (s *Store) writableLocked() error {
	if s.f == nil {
		return fmt.Errorf("storage: store closed")
	}
	if s.damaged {
		return ErrDamaged
	}
	return nil
}

// writeLocked lands buf at the append offset and, on a failed or short write,
// truncates the torn frame away so it never corrupts the records appended
// after it. Nothing it lands is durable before syncLocked. Caller holds s.mu.
func (s *Store) writeLocked(buf []byte) error {
	n, err := s.f.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.repairLocked(s.off)
		return err
	}
	s.off += int64(len(buf))
	return nil
}

// syncLocked is the second half of the durability step: one fsync (under
// Options.Sync, or forced for control records) covering everything landed
// since the last one, after which the landed records count — seq, tail and
// audit bookkeeping describe synced frames only. A failed fsync leaves bytes
// of unknown durability, so the log is truncated back to the durable
// watermark and the landed records are dropped: a caller seeing an error
// knows none of them is durable AND the log still ends at a CRC-valid frame
// boundary. On a primary, where every land is synced before anything else
// happens, that is the pre-write state and the engine rolls the group back, so
// acknowledged state and recovered state agree. Caller holds s.mu.
func (s *Store) syncLocked(force bool) error {
	if force || s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			s.repairLocked(s.durable)
			s.landed = nil
			return err
		}
	}
	s.durable = s.off
	for _, r := range s.landed {
		if r.Seq > s.seq && !r.IsAudit() {
			s.seq = r.Seq
			s.lastEpoch = r.Epoch
		}
		s.appendTailLocked(r)
		if r.IsAudit() {
			s.appendAuditLocked(r)
		}
		s.sinceCompact++
	}
	s.landed = nil
	return nil
}

// repairLocked truncates the log back to pos and restores the append
// position, fsyncing the shrunken length so the discarded suffix cannot
// resurface after a crash. If the repair itself fails the store wedges
// (ErrDamaged) rather than risk appending after garbage. Caller holds s.mu.
func (s *Store) repairLocked(pos int64) {
	err := s.f.Truncate(pos)
	if err == nil {
		_, err = s.f.Seek(pos, io.SeekStart)
	}
	if err == nil {
		err = s.f.Sync()
	}
	s.off, s.damaged = pos, s.damaged || err != nil
}

// controlLocked appends one node-level control record, fsynced regardless of
// Options.Sync. Caller holds s.mu.
func (s *Store) controlLocked(r Record) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	buf, err := EncodeFrame(nil, r)
	if err == nil {
		err = s.writeLocked(buf)
	}
	if err == nil {
		err = s.syncLocked(true)
	}
	return err
}

// Epoch reports the store's durable fencing epoch: the highest KindEpoch
// control record persisted (see SetEpoch).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetEpoch durably adopts fencing epoch e by appending a KindEpoch control
// record, fsynced regardless of Options.Sync — an epoch adoption that could
// vanish in a crash would let a deposed primary resurrect split-brain.
// Adopting an epoch at or below the current one is a no-op (epochs only
// move forward). Control records stay out of the tail, the audit log and the
// compaction trigger: they are node state, not tenant history.
func (s *Store) SetEpoch(e uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e <= s.epoch {
		return nil
	}
	if err := s.controlLocked(Record{Kind: KindEpoch, Epoch: e}); err != nil {
		return err
	}
	s.epoch = e
	return nil
}

// Placement reports the payload of the node's most recent placement-map
// control record, nil when none was ever adopted (see SetPlacement).
func (s *Store) Placement() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placement
}

// SetPlacement durably adopts an encoded placement map by appending a
// KindPlacement control record, fsynced regardless of Options.Sync — a
// placement adoption that vanished in a crash could resurrect an owner the
// cluster already migrated away from. The store does not order payloads;
// the placement Table persists strictly version-increasing maps, so the
// last record in file order is the newest (see Open). Like epoch records,
// placement records stay out of the tail, the audit log and the compaction
// trigger: node state, not tenant history.
func (s *Store) SetPlacement(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.controlLocked(Record{Kind: KindPlacement, Data: data}); err != nil {
		return err
	}
	s.placement = append([]byte(nil), data...)
	return nil
}

// SetStampEpoch sets the epoch stamped onto locally minted records from now
// on. In-memory only: durability rides on the stamped records themselves.
func (s *Store) SetStampEpoch(e uint64) {
	s.mu.Lock()
	s.stampEpoch = e
	s.mu.Unlock()
}

// Position reports the replication position as a (seq, epoch) pair: the
// highest step sequence together with the fencing epoch stamped on that
// record — what a follower sends with a pull so the upstream can check the
// follower's history is a prefix of its own (see EpochAt).
func (s *Store) Position() (int, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.lastEpoch
}

// EpochAt reports the fencing epoch of the step record at seq, when the
// store can still determine it: from the in-memory tail, or from the
// snapshot meta when seq is exactly the snapshot base. The second return is
// false when the position was compacted away — the caller (PullWAL) forces a
// snapshot bootstrap then, exactly as it does for a sequence gap.
func (s *Store) EpochAt(seq int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.tail) - 1; i >= 0; i-- {
		r := s.tail[i]
		if r.Seq == seq && !r.IsAudit() {
			return r.Epoch, true
		}
		if r.Seq < seq {
			break
		}
	}
	if seq == s.snapBase {
		return s.snapEpoch, true
	}
	return 0, false
}

// Audit returns the retained audit records with audit indexes (Record.ASeq,
// the unique per-record cursor — NOT the shared step sequence number) above
// after, oldest first, capped at limit (<= 0 = no cap), together with the
// total number of audit records this store has seen (recovered + appended;
// a total exceeding the returned length means the retained window trimmed
// older entries). Page forward by passing the last record's ASeq back as
// after. Retention is the maxAudit window: compaction re-appends the window
// after truncating the log (see compactLocked), so the trail survives
// compaction cycles and restarts — graceful or SIGKILL — with at most the
// oldest entries beyond the window aged out.
func (s *Store) Audit(after uint64, limit int) ([]Record, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.audit))
	for _, r := range s.audit {
		if r.ASeq > after {
			out = append(out, r)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, s.auditTotal
}

// SinceCompact reports how many log records have accumulated since the last
// compaction — the signal callers use to trigger Compact on a budget.
func (s *Store) SinceCompact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceCompact
}

// Compact writes a snapshot of the policy at the current sequence number and
// truncates the log. The snapshot is written atomically (temp file + rename)
// so a crash mid-compaction never loses state.
func (s *Store) Compact(p *policy.Policy) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(p, s.seq, s.lastEpoch, true)
}

// CompactAt installs p as the snapshot at an explicit sequence number —
// the install path (provisioning and follower bootstrap), where the
// snapshot state arrives from outside the local engine — stamped with the
// fencing epoch of the record the snapshot covers. Installing below the
// current sequence is refused unless rewind is set: replication never moves
// a tenant backwards within an epoch, but healing a fork after a failover
// (a deposed primary's unreplicated tail, see tenant.InstallReplicaSnapshot)
// is exactly a rewind to the new primary's history. Unlike a head
// compaction, an install drops the local audit trail with the log: the
// installer replaces the state wholesale and supplies the matching trail
// itself, so keeping the old one would duplicate or misattribute history.
func (s *Store) CompactAt(p *policy.Policy, seq int, seqEpoch uint64, rewind bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.seq && !rewind {
		return fmt.Errorf("storage: CompactAt seq %d below current %d", seq, s.seq)
	}
	if err := s.compactLocked(p, seq, seqEpoch, false); err != nil {
		// The install failed and the caller keeps serving the old state: the
		// old audit trail stays with it (dropping it here would destroy it
		// even though nothing was replaced).
		return err
	}
	s.audit = s.audit[:0]
	s.auditTotal = 0
	return nil
}

func (s *Store) compactLocked(p *policy.Policy, seq int, seqEpoch uint64, keepAudit bool) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	data, err := encodeSnapshot(snapshotMeta{Seq: seq, SeqEpoch: seqEpoch, Epoch: s.epoch, Placement: s.placement}, p)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		return err
	}
	// Upgrade a directory that still holds the old format. Open never reads
	// past a snapshot.bin, so a crash before this line costs nothing.
	if err := os.Remove(filepath.Join(s.dir, legacySnapshotFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// Truncate the log to just the header.
	if err := s.f.Truncate(int64(len(logMagic))); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	s.off, s.durable, s.landed = int64(len(logMagic)), int64(len(logMagic)), nil
	// Re-append the retained audit window: compaction folds *state* into the
	// snapshot, but audit records are observations with no representation in
	// it, so truncating them away would erase the trail on every graceful
	// restart. The window is bounded (maxAudit), so the re-append keeps the
	// log small while audit history survives compaction cycles. Replay
	// collects audit records regardless of their (old) sequence numbers.
	if keepAudit && len(s.audit) > 0 {
		var buf []byte
		var err error
		for _, r := range s.audit {
			if buf, err = EncodeFrame(buf, r); err != nil {
				return err
			}
		}
		if err := s.writeLocked(buf); err != nil {
			return err
		}
	}
	if seq != s.seq || seqEpoch != s.lastEpoch {
		// Snapshot installed at a different position (replica bootstrap
		// jump, forward or — healing a fork — backward) or across an epoch
		// boundary: the cached records do not connect to it — drop them.
		s.tail = s.tail[:0]
		s.tailBase = seq
		s.lastEpoch = seqEpoch
	}
	// A compaction at the current head keeps the tail: the truncated
	// records remain valid, servable history, so a follower lagging by a
	// few records replays them incrementally instead of paying a snapshot
	// bootstrap every compaction cycle.
	s.seq = seq
	s.snapBase = seq
	s.snapEpoch = seqEpoch
	s.sinceCompact = 0
	return s.syncLocked(false)
}

// SnapBase reports the sequence number the on-disk snapshot covers; the log
// serves exactly the records in (SnapBase, Seq].
func (s *Store) SnapBase() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapBase
}

// ReadSince returns the logged records with sequence numbers above afterSeq,
// in order. gap reports that the log cannot serve that position because a
// compaction folded records at or below its snapshot base into the snapshot;
// the caller must bootstrap from a snapshot instead (see
// internal/replication). Pulls at or near the head — the replication steady
// state — are served from the in-memory tail without touching the file.
func (s *Store) ReadSince(afterSeq int) (records []Record, gap bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil, false, fmt.Errorf("storage: store closed")
	}
	if afterSeq >= s.seq {
		return nil, false, nil
	}
	if afterSeq >= s.tailBase {
		// The tail holds every record with Seq > tailBase — including
		// records a head compaction already truncated from the file, so
		// near-head pulls keep replaying incrementally across compactions.
		for _, r := range s.tail {
			if r.Seq > afterSeq {
				records = append(records, r)
			}
		}
		return records, false, nil
	}
	if afterSeq < s.snapBase {
		return nil, true, nil
	}
	// The position predates the cached tail but is still in the log (the
	// tail cap trimmed it): fall back to decoding the file. Cold path — it
	// only runs for a follower more than maxTail records behind yet not past
	// the last compaction. readAll seeks to the start; restore the append
	// position before inspecting its error so a failed read never leaves
	// the next append mid-file.
	_, _, recs, rerr := readAll(s.f)
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return nil, false, err
	}
	if rerr != nil {
		return nil, false, rerr
	}
	for _, r := range recs {
		if r.Seq > afterSeq {
			records = append(records, r)
		}
	}
	return records, false, nil
}

// Seq returns the highest sequence number seen.
func (s *Store) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close releases the log file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"adminrefine/internal/command"
)

// Kind distinguishes what a record logs.
type Kind uint8

const (
	// KindStep marks a step record: an applied engine command whose effect
	// recovery replays.
	KindStep Kind = iota
	// KindAudit marks an audit record: a logged observation of one processed
	// administrative command (any outcome, with an optional denial reason)
	// that is never replayed into the policy.
	KindAudit
	// KindEpoch marks a fencing-epoch control record: a durable note that the
	// node adopted (or minted, at promotion) the given cluster epoch. Epoch
	// records carry no command — only Record.Epoch is meaningful — and are
	// never replayed into the policy or shipped to replication pullers;
	// recovery takes the highest one as the store's durable epoch. The
	// node-level store (see cmd/rbacd) is their home; per-tenant WALs carry
	// epochs on the step records themselves instead.
	KindEpoch
	// KindPlacement marks a placement-map control record: the durable copy of
	// the cluster's tenant→primary placement map (see internal/placement) as
	// last adopted by this node. Like epoch records they carry no command, are
	// never replayed or shipped to replication pullers, and live only in the
	// node-level store; the payload is the encoded map in Record.Data.
	// Recovery keeps the last one in file order — the placement Table enforces
	// version monotonicity before anything is persisted, so append order is
	// version order.
	KindPlacement
)

// kindNames are the kinds' names in a record's JSON.
var kindNames = [...]string{KindStep: "", KindAudit: "audit", KindEpoch: "epoch", KindPlacement: "placement"}

// Record is one logged administrative command with its outcome, or a control
// record (IsControl) carrying neither.
type Record struct {
	Kind Kind
	// Seq is the engine generation the record belongs to: the one a step
	// produced, the one an audit observed.
	Seq     int
	Cmd     command.Command
	Outcome command.Outcome
	// Reason carries a denial explanation beyond Definition 5 (e.g. a
	// separation-of-duty veto) on audit records.
	Reason string
	// ASeq is the store-local audit index (1, 2, …), assigned at append
	// time on audit records. Unlike Seq — the engine generation, which
	// every no-effect audit at the same generation shares — ASeq is unique
	// per record, so it is the pagination cursor of the audit log. It is
	// node-local: a follower re-indexes adopted/replicated audit records
	// into its own sequence.
	ASeq uint64
	// Epoch is the cluster fencing epoch the record was written under. On
	// step and audit records it is stamped at append time from the store's
	// stamp epoch and preserved verbatim by replication — the Raft-style
	// (term, index) pair that lets a new primary distinguish a follower
	// whose history is a prefix of its own (serve from its WAL seq) from one
	// that forked across a failover (force a rewinding snapshot bootstrap).
	// On KindEpoch control records it is the adopted epoch itself.
	Epoch uint64
	// Data is the opaque payload of KindPlacement control records (the
	// encoded placement map); empty on every other kind.
	Data []byte
}

// IsAudit reports whether the record is an audit observation rather than a
// replayable step.
func (r Record) IsAudit() bool { return r.Kind == KindAudit }

// IsControl reports whether the record is node-level control state (epoch
// or placement) rather than tenant history: never replayed, never tailed,
// never replicated, excluded from the compaction trigger, and without a
// command.
func (r Record) IsControl() bool { return r.Kind == KindEpoch || r.Kind == KindPlacement }

// maxFrameBytes bounds one frame's payload; larger length prefixes are
// treated as a torn/corrupt tail rather than an allocation request.
const maxFrameBytes = 1 << 28

// EncodeFrame appends r's frame to buf — the inverse of DecodeFrames for one
// record. The payload is r's binary form,
//
//	kind u8 | outcome u8 | uvarint seq, epoch, aseq | command | reason | data
//
// where command (step and audit records only) is the binary form of
// internal/command and reason and data are length-prefixed. A command no
// decoder could read back is refused, so nothing logged ever ends a replay
// early.
func EncodeFrame(buf []byte, r Record) ([]byte, error) {
	return command.AppendFrame(buf, maxFrameBytes, func(b []byte) ([]byte, error) {
		b = binary.AppendUvarint(append(b, byte(r.Kind), byte(r.Outcome)), uint64(r.Seq))
		b = binary.AppendUvarint(binary.AppendUvarint(b, r.Epoch), r.ASeq)
		var err error
		if !r.IsControl() {
			if b, err = command.AppendBinary(b, r.Cmd); err != nil {
				return b, err
			}
		}
		b = binary.AppendUvarint(command.AppendString(b, r.Reason), uint64(len(r.Data)))
		return append(b, r.Data...), nil
	})
}

// DecodeFrames parses record frames from data: the WAL record stream after
// the file magic, and exactly the body of a replication pull response (the
// two agree by construction, so a follower applies what the primary logged).
// A payload starting with '{' is a record of log format v1 (its JSON) and
// decodes as such. It returns the offset one past the last whole valid frame
// and the decoded records; a torn, corrupt or undecodable tail simply ends
// the scan. DecodeFrames never panics on arbitrary input (fuzzed by
// FuzzWALDecode).
func DecodeFrames(data []byte) (validEnd int, records []Record) {
	for {
		payload, n, ok, err := command.NextFrame(data[validEnd:], maxFrameBytes)
		if !ok || err != nil {
			return validEnd, records
		}
		var r Record
		if len(payload) > 0 && payload[0] == '{' {
			err = r.UnmarshalJSON(payload)
		} else {
			r, err = decodeRecord(payload)
		}
		if err != nil {
			return validEnd, records
		}
		records = append(records, r)
		validEnd += n
	}
}

// decodeRecord is the inverse of EncodeFrame's payload.
func decodeRecord(payload []byte) (Record, error) {
	rd := command.NewReader(payload)
	r := Record{Kind: Kind(rd.U8()), Outcome: command.Outcome(rd.U8())}
	r.Seq, r.Epoch, r.ASeq = int(rd.Uvarint()), rd.Uvarint(), rd.Uvarint()
	if int(r.Kind) >= len(kindNames) || r.Outcome > command.IllFormed {
		rd.Fail(fmt.Errorf("storage: bad record header"))
	}
	if !r.IsControl() {
		rd.Command(&r.Cmd, nil)
	}
	r.Reason = rd.Str(nil)
	if data := rd.Bytes(); len(data) > 0 {
		r.Data = append([]byte(nil), data...)
	}
	return r, rd.Done()
}

// recordJSON is a record as JSON — the shape of GET …/audit, of the
// bootstrap document's audit window, and of a whole log format v1 payload.
// The command's fields sit between seq and outcome; a control record's are
// empty.
type recordJSON struct {
	Kind string `json:"kind,omitempty"`
	Seq  int    `json:"seq"`
	command.Wire
	Outcome string          `json:"outcome"` // "applied", "nochange", "denied", "illformed"
	Reason  string          `json:"reason,omitempty"`
	ASeq    uint64          `json:"aseq,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// MarshalJSON renders the record at the edge.
func (r Record) MarshalJSON() ([]byte, error) {
	j := recordJSON{Kind: kindNames[r.Kind], Seq: r.Seq, Reason: r.Reason, ASeq: r.ASeq, Epoch: r.Epoch, Data: r.Data}
	if r.Outcome != 0 {
		j.Outcome = r.Outcome.WireName()
	}
	if !r.IsControl() {
		var err error
		if j.Wire, err = command.EncodeWire(r.Cmd); err != nil {
			return nil, err
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes what MarshalJSON renders, and every record log
// format v1 stored.
func (r *Record) UnmarshalJSON(data []byte) error {
	var j recordJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	kind := slices.Index(kindNames[:], j.Kind)
	outcome, err := command.ParseOutcome(j.Outcome)
	if kind < 0 || err != nil {
		return fmt.Errorf("storage: record of kind %q, outcome %q", j.Kind, j.Outcome)
	}
	*r = Record{Kind: Kind(kind), Seq: j.Seq, Outcome: outcome, Reason: j.Reason, ASeq: j.ASeq, Epoch: j.Epoch, Data: j.Data}
	if !r.IsControl() {
		r.Cmd, err = j.Wire.Logged()
	}
	return err
}

package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"adminrefine/internal/command"
	"adminrefine/internal/model"
)

// Kind is the operation an Op performs.
type Kind uint8

const (
	// Authorize is a hypothetical authorization batch (read).
	Authorize Kind = iota
	// Check is a session access check (read).
	Check
	// Submit is a durable administrative submit (write). Every submit is
	// followed by its read-your-writes read, timed as kind RYW.
	Submit
	// RYW is the read issued at the instant a submit is acknowledged,
	// carrying the acknowledged generation as min_generation.
	RYW
	NumKinds
)

func (k Kind) String() string {
	return [...]string{"authorize", "check", "submit", "ryw"}[k]
}

// Spec is the shape of one workload's traffic and fixture. Every tenant is
// provisioned with the same chain-role churn policy (see Fixture), so the
// generator knows every answer without asking the server.
type Spec struct {
	Tenants int
	Roles   int
	Users   int
	// Skew is the Zipf s parameter of the tenant pick (> 1); 0 picks
	// tenants uniformly.
	Skew float64
	// SubmitFrac is the share of ops that are durable submits; CheckFrac the
	// share of the remaining reads that are session checks.
	SubmitFrac float64
	CheckFrac  float64
	// Batch is the number of commands per authorize op.
	Batch int
	// DenyFrac is the share of authorize commands and check probes whose
	// generator-known answer is deny.
	DenyFrac float64
	// ReadSet is the number of distinct (user, role) pairs reads draw from:
	// with the deny variants, each tenant's decision-cache working set.
	ReadSet int
}

// Op is one generated operation. Commands are not stored per op: authorize
// ops and RYW reads are windows into the stream's shared command ring, and
// submits index the per-tenant grant stream.
type Op struct {
	Kind   Kind
	Tenant int32
	// Off is the ring offset of an authorize batch (N commands) or of the
	// RYW read following a submit (one command); for a check, the probe.
	Off int32
	N   int32
	// Sub is a submit's position in its tenant's grant stream.
	Sub int32
}

// Probe is one session access check.
type Probe struct {
	Action string
	Object string
}

const (
	adminUser   = "churnadmin"
	sessionUser = "u0"
	ringLen     = 1 << 16
)

// SessionUser and SessionRole shape the per-tenant check session: u0 sits at
// the top of the role chain, whose bottom role holds (read, obj).
func SessionUser() string { return sessionUser }
func SessionRole() string { return roleName(0) }

func roleName(i int) string { return fmt.Sprintf("c%04d", i) }
func userName(i int) string { return fmt.Sprintf("cu%04d", i) }

// TenantName names the i-th tenant.
func TenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// PolicyRPL renders the fixture every tenant is provisioned with: a role
// chain c0000 → … → c(R-1) whose bottom holds (read, obj), session user u0
// on c0000, U member users, and churnadmin, whose one privilege
// grant(member, c0000) authorizes — under the refined regime — assigning any
// member to any chain role. Members hold nothing, so the same grant issued
// by a member is denied; both answers hold in every reachable state because
// the submit stream only adds member→chain-role edges.
func PolicyRPL(roles, users int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "assign %s %s\n", sessionUser, roleName(0))
	for i := 0; i+1 < roles; i++ {
		fmt.Fprintf(&b, "inherit %s %s\n", roleName(i), roleName(i+1))
	}
	fmt.Fprintf(&b, "grant %s (read, obj)\n", roleName(roles-1))
	fmt.Fprintf(&b, "assign %s churnadmins\n", adminUser)
	fmt.Fprintf(&b, "grant churnadmins grant(member, %s)\n", roleName(0))
	for i := 0; i < users; i++ {
		fmt.Fprintf(&b, "assign %s member\n", userName(i))
	}
	return b.String()
}

// Stream is a seeded op stream with its generator-known answers.
type Stream struct {
	Spec Spec
	Ops  []Op
	// Hash identifies the stream: same spec and seed, same hash.
	Hash uint64

	ring    []command.Command
	allowed []bool
	grants  []command.Command
	probes  [2]Probe
}

// pairCmd is the grant of member user u to chain role r, issued by the
// administrator (allowed) or by the member itself (denied).
func pairCmd(u, r int, allow bool) command.Command {
	actor := adminUser
	if !allow {
		actor = userName(u)
	}
	return command.Grant(actor, model.User(userName(u)), model.Role(roleName(r)))
}

// Generate builds n ops from the spec and seed. It fails when a tenant's
// submits would outrun its users×roles distinct grants: a repeated grant is
// a no-op the server neither logs nor fsyncs, so the stream must not wrap.
func Generate(spec Spec, seed int64, n int) (*Stream, error) {
	if spec.Tenants < 1 || spec.Roles < 1 || spec.Users < 1 || spec.Batch < 1 || spec.Batch > ringLen {
		return nil, fmt.Errorf("loadgen: bad spec %+v", spec)
	}
	pairs := spec.Users * spec.Roles
	if spec.ReadSet < 1 || spec.ReadSet > pairs {
		return nil, fmt.Errorf("loadgen: read set %d outside 1..%d", spec.ReadSet, pairs)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Stream{Spec: spec, Ops: make([]Op, n)}
	s.probes = [2]Probe{{"read", "obj"}, {"write", "obj"}}

	// The read set is a seeded sample of the pair space, so a different seed
	// reads different commands of the same fixture.
	readPairs := rng.Perm(pairs)[:spec.ReadSet]
	s.ring = make([]command.Command, ringLen)
	s.allowed = make([]bool, ringLen)
	for i := range s.ring {
		p := readPairs[rng.Intn(len(readPairs))]
		s.allowed[i] = rng.Float64() >= spec.DenyFrac
		s.ring[i] = pairCmd(p%spec.Users, p/spec.Users, s.allowed[i])
	}

	var zipf *rand.Zipf
	if spec.Skew > 1 && spec.Tenants > 1 {
		zipf = rand.NewZipf(rng, spec.Skew, 1, uint64(spec.Tenants-1))
	}
	subs := make([]int32, spec.Tenants)
	h := fnv.New64a()
	var word [16]byte
	for i := range s.Ops {
		op := &s.Ops[i]
		if zipf != nil {
			op.Tenant = int32(zipf.Uint64())
		} else {
			op.Tenant = int32(rng.Intn(spec.Tenants))
		}
		r := rng.Float64()
		switch {
		case r < spec.SubmitFrac:
			op.Kind = Submit
			op.Sub = subs[op.Tenant]
			subs[op.Tenant]++
			op.Off, op.N = int32(rng.Intn(ringLen)), 1
		case r < spec.SubmitFrac+(1-spec.SubmitFrac)*spec.CheckFrac:
			op.Kind = Check
			if rng.Float64() < spec.DenyFrac {
				op.Off = 1
			}
			op.N = 1
		default:
			op.Kind = Authorize
			op.Off, op.N = int32(rng.Intn(ringLen-spec.Batch+1)), int32(spec.Batch)
		}
		word = [16]byte{byte(op.Kind)}
		putU32(word[1:], uint32(op.Tenant))
		putU32(word[5:], uint32(op.Off))
		putU32(word[9:], uint32(op.Sub))
		h.Write(word[:13])
	}
	s.Hash = h.Sum64()

	most := int32(0)
	for _, c := range subs {
		most = max(most, c)
	}
	if int(most) > pairs {
		return nil, fmt.Errorf("loadgen: a tenant draws %d submits but the fixture has %d distinct grants", most, pairs)
	}
	s.grants = make([]command.Command, most)
	for k := range s.grants {
		s.grants[k] = pairCmd(k%spec.Users, k/spec.Users, true)
	}
	return s, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// Cmds returns the commands an op sends and, for reads, the generator-known
// verdict of each: an authorize op's batch, a submit's one fresh grant.
func (s *Stream) Cmds(op *Op) ([]command.Command, []bool) {
	if op.Kind == Submit {
		return s.grants[op.Sub : op.Sub+1], nil
	}
	return s.ring[op.Off : op.Off+op.N], s.allowed[op.Off : op.Off+op.N]
}

// RYW returns the one-command read that follows a submit.
func (s *Stream) RYW(op *Op) ([]command.Command, []bool) {
	return s.ring[op.Off : op.Off+1], s.allowed[op.Off : op.Off+1]
}

// Probe returns a check op's probe and its generator-known verdict.
func (s *Stream) Probe(op *Op) (Probe, bool) {
	return s.probes[op.Off], op.Off == 0
}

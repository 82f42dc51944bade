package parser

import (
	"fmt"
	"strings"
	"testing"
)

const checksRPL = figure2RPL + `
do jane grant bob staff

expect reaches bob staff
expect reaches bob (write, t3)
expect not reaches jane staff
expect weaker grant(bob, staff) grant(bob, dbusr2)
expect not weaker grant(bob, dbusr2) grant(bob, staff)
`

func TestParseChecks(t *testing.T) {
	doc, err := Parse(checksRPL)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Checks) != 5 {
		t.Fatalf("checks = %d", len(doc.Checks))
	}
	c0 := doc.Checks[0]
	if c0.Kind != CheckReaches || c0.Negated || c0.From.String() != "bob" || c0.To.String() != "staff" {
		t.Errorf("check 0 = %+v", c0)
	}
	if doc.Checks[1].To.Key() != "p:(write,t3)" {
		t.Errorf("check 1 target = %v", doc.Checks[1].To)
	}
	if !doc.Checks[2].Negated {
		t.Error("check 2 not negated")
	}
	c3 := doc.Checks[3]
	if c3.Kind != CheckWeaker || c3.Strong == nil || c3.Weak == nil {
		t.Errorf("check 3 = %+v", c3)
	}
	if !doc.Checks[4].Negated || doc.Checks[4].Kind != CheckWeaker {
		t.Errorf("check 4 = %+v", doc.Checks[4])
	}
	// Lines are recorded for diagnostics.
	if c0.Line == 0 {
		t.Error("check line missing")
	}
}

func TestCheckStrings(t *testing.T) {
	doc, err := Parse(checksRPL)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Checks[0].String(); got != "expect reaches bob staff" {
		t.Errorf("String = %q", got)
	}
	if got := doc.Checks[2].String(); got != "expect not reaches jane staff" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(doc.Checks[3].String(), "expect weaker grant(bob, staff)") {
		t.Errorf("String = %q", doc.Checks[3].String())
	}
}

func TestChecksRoundTrip(t *testing.T) {
	doc, err := Parse(checksRPL)
	if err != nil {
		t.Fatal(err)
	}
	text := printDoc(doc)
	doc2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if len(doc2.Checks) != len(doc.Checks) {
		t.Fatalf("check round trip: %d -> %d", len(doc.Checks), len(doc2.Checks))
	}
	for i := range doc.Checks {
		if doc.Checks[i].String() != doc2.Checks[i].String() {
			t.Errorf("check %d changed: %v -> %v", i, doc.Checks[i], doc2.Checks[i])
		}
	}
	// printDoc without checks equals Print.
	plain, err := Parse(figure2RPL)
	if err != nil {
		t.Fatal(err)
	}
	if printDoc(plain) != Print(plain.Policy, plain.Queue) {
		t.Error("printDoc diverges from Print for check-less documents")
	}
}

func TestCheckParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"bad keyword", "users u\nroles r\nexpect frobs u r", "expected reaches or weaker"},
		{"undeclared operand", "users u\nroles r\nexpect reaches ghost r", "not declared"},
		{"undeclared target", "users u\nroles r\nexpect reaches u ghost", "not declared"},
		{"weaker needs privileges", "users u\nroles r\nexpect weaker u r", "expected a privilege"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q missing %q", err, c.want)
			}
		})
	}
}

// printDoc renders a full document — policy, command queue and expect
// checks — in canonical RPL. Parse(printDoc(doc)) reproduces the document.
func printDoc(doc *Document) string {
	out := Print(doc.Policy, doc.Queue)
	if len(doc.Checks) == 0 {
		return out
	}
	var b strings.Builder
	b.WriteString(out)
	for _, c := range doc.Checks {
		b.WriteString(formatCheck(c))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCheck(c Check) string {
	neg := ""
	if c.Negated {
		neg = "not "
	}
	switch c.Kind {
	case CheckReaches:
		return fmt.Sprintf("expect %sreaches %s %s", neg, quoteName(c.From.String()), formatVertex(c.To))
	case CheckWeaker:
		return fmt.Sprintf("expect %sweaker %s %s", neg, FormatPrivilege(c.Strong), FormatPrivilege(c.Weak))
	default:
		return "# unknown check"
	}
}

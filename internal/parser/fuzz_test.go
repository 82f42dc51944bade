package parser

import (
	"strings"
	"testing"
)

// FuzzParse exercises the lexer and parser with arbitrary input: parsing
// must never panic, and any input that parses must round-trip through the
// canonical printer to an equal document. Run the seeds with `go test`;
// explore with `go test -fuzz=FuzzParse ./internal/parser`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		figure2RPL,
		checksRPL,
		"users a\nroles r\nassign a r\ndo a grant a r\n",
		"roles r\ngrant r (x, y)\n",
		"roles r\ngrant r grant(r, grant(r, grant(r, r)))\n",
		`users "q\"uote"` + "\nroles r\nassign \"q\\\"uote\" r\n",
		"users a,\nroles", // truncated
		"users a roles r", // missing separators
		"expect reaches a b",
		"do u grant (a, b) r",
		"grant r revoke(r, (a, b))",
		"users \x00\nroles \xff\n",
		strings.Repeat("roles r\n", 50),
		"roles r\ngrant r " + strings.Repeat("grant(r, ", 30) + "r" + strings.Repeat(")", 30),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := doc.Policy.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid policy: %v\ninput: %q", err, src)
		}
		// Canonical round trip.
		text := printDoc(doc)
		doc2, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ncanonical: %q", err, text)
		}
		if !doc2.Policy.Equal(doc.Policy) {
			t.Fatalf("round trip changed policy\ninput: %q\ncanonical: %q", src, text)
		}
		if len(doc2.Queue) != len(doc.Queue) || len(doc2.Checks) != len(doc.Checks) {
			t.Fatalf("round trip changed queue/checks\ninput: %q", src)
		}
	})
}

// FuzzLexer checks the tokenizer alone never panics and always terminates.
func FuzzLexer(f *testing.F) {
	for _, s := range []string{"", "a b c", `"unterminated`, "(,,)#", "\"\\\\\"", "\xf0\x9f\x92\xa9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("token stream not EOF-terminated for %q", src)
		}
	})
}

package command

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"adminrefine/internal/model"
)

// TestBinaryRoundTrip: a command comes back from its binary form whatever
// the width of its keys' length prefixes, and a truncated form fails.
func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 120, 127, 128, 300, 20000} {
		name := strings.Repeat("x", n) + ",ü"
		c := Revoke(name, model.Role(name), model.Grant(model.Role(name), model.Perm(name, "o")))
		buf, err := AppendBinary([]byte("prefix"), c)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(buf[len("prefix"):])
		var got Command
		if r.Command(&got, nil); r.Done() != nil || !reflect.DeepEqual(got, c) {
			t.Fatalf("name of %d bytes: decoded %v (%v)", n, got, r.Done())
		}
		r = NewReader(buf[len("prefix") : len(buf)-1])
		if r.Command(&Command{}, nil); !errors.Is(r.Done(), ErrMalformed) {
			t.Fatalf("name of %d bytes: truncated form decoded (%v)", n, r.Done())
		}
	}
}

// TestFrameBound: a payload over the caller's bound is refused on both
// sides, and a refused append leaves the buffer as it was.
func TestFrameBound(t *testing.T) {
	fill := func(b []byte) ([]byte, error) { return append(b, "12345"...), nil }
	if buf, err := AppendFrame([]byte("kept"), 4, fill); err == nil || string(buf) != "kept" {
		t.Fatalf("over-bound append: %q, %v", buf, err)
	}
	buf, err := AppendFrame(nil, 5, fill)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := NextFrame(buf, 4); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("over-bound frame scanned: %v", err)
	}
	if payload, n, ok, err := NextFrame(buf, 5); !ok || err != nil || n != len(buf) || string(payload) != "12345" {
		t.Fatalf("frame: %q %d %v %v", payload, n, ok, err)
	}
	if _, _, ok, err := NextFrame(buf[:len(buf)-1], 5); ok || err != nil {
		t.Fatalf("torn frame: ok %v, err %v", ok, err)
	}
}

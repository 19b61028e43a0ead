package quel

import (
	"reflect"
	"testing"
)

// FuzzQuelRoundTrip feeds arbitrary text to the parser: Parse never
// panics, and a program it accepts prints to text that parses back to the
// same program and prints again to the same text.
func FuzzQuelRoundTrip(f *testing.F) {
	for _, src := range []string{
		superstarSrc,
		tquelSuperstar,
		"range of x is R\nretrieve (x.A) where x.ValidFrom < $1",
		"retrieve(A)where 0=\"\x7f\"",
		`retrieve (A) where 0 = "a\b"`,
		"range of e is Emp\nretrieve into T (n=count(e)) where e.ValidTo = forever",
		"range of f is F\nrange of g is F\nsubscribe w (Name=f.Name) where (f overlap g)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\nsource: %q\nprinted: %q", err, src, printed)
		}
		if again := Print(p2); again != printed {
			t.Fatalf("print is not stable:\nsource: %q\nfirst:  %q\nsecond: %q", src, printed, again)
		}
		if !equalAST(reflect.ValueOf(p1), reflect.ValueOf(p2)) {
			t.Fatalf("round trip changed the program:\nsource: %q\nprinted: %q", src, printed)
		}
	})
}

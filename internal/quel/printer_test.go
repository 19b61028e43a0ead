package quel

import (
	"reflect"
	"strings"
	"testing"

	"tdb/internal/value"
)

var valueType = reflect.TypeOf(value.Value{})

// equalAST is reflect.DeepEqual with value.Value compared by Equal. Two
// equal string literals parsed from different texts live in different
// buffers, and DeepEqual would compare a Value's string data pointer.
func equalAST(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		return a.Interface().(value.Value).Equal(b.Interface().(value.Value))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalAST(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !equalAST(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !equalAST(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// Round trip: parse → print → parse yields a structurally identical
// program, across the language's features.
func TestPrintRoundTrip(t *testing.T) {
	sources := []string{
		superstarSrc,
		tquelSuperstar,
		`range of e is Emp
retrieve into Totals (Dept=e.Dept, total=sum(e.Salary), n=count(e))
where e.Salary >= 50 and e.ValidTo = forever`,
		`range of a is R
retrieve (X=a.S) where a.ValidFrom != 3 and (a met-by a) and a.S > "m"`,
		"range of f is Faculty\nrange of g is Faculty\nsubscribe watch (Name=f.Name) where (f overlap g)",
	}
	for _, src := range sources {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse: %v\nprinted:\n%s", err, printed)
		}
		// The valid clause normalizes into the where-form targets only at
		// translation time, so the ASTs must match exactly here.
		if !equalAST(reflect.ValueOf(p1), reflect.ValueOf(p2)) {
			t.Errorf("round trip changed the program:\noriginal: %#v\nreparsed: %#v\nprinted:\n%s",
				p1, p2, printed)
		}
	}
}

// equalAST still tells programs apart that differ in one literal, of
// either kind.
func TestEqualASTSeesLiterals(t *testing.T) {
	base := `range of a is R
retrieve (X=a.S) where a.ValidFrom != 3 and a.S > "m"`
	p1, err := Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, changed := range []string{
		strings.Replace(base, `"m"`, `"n"`, 1),
		strings.Replace(base, `"m"`, `"mm"`, 1),
		strings.Replace(base, "!= 3", "!= 4", 1),
	} {
		p2, err := Parse(changed)
		if err != nil {
			t.Fatal(err)
		}
		if equalAST(reflect.ValueOf(p1), reflect.ValueOf(p2)) {
			t.Errorf("programs compare equal but differ:\n%s\n%s", base, changed)
		}
	}
}

func TestPrintRendersClauses(t *testing.T) {
	prog, err := Parse(tquelSuperstar)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(prog)
	for _, frag := range []string{
		"range of f1 is Faculty",
		"retrieve into Stars",
		"valid from f1.ValidFrom to f2.ValidTo",
		`f1.Rank="Assistant"`,
		"(f1 overlap a)",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("printed program missing %q:\n%s", frag, out)
		}
	}
}

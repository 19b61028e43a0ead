package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hotBoxings type-checks src (a file body without the package clause) as
// a one-package module and returns the messages of the hotpath-alloc
// findings that report interface boxing.
func hotBoxings(t *testing.T, src string) []string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module hot\n\ngo 1.22\n",
		"hot.go": "package hot\n\n" + src,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range Check(pkgs, []*Analyzer{hotpathAllocAnalyzer}) {
		if strings.HasPrefix(d.Message, "hot path boxes ") {
			out = append(out, d.Message)
		}
	}
	return out
}

func TestHotpathBoxingAtAssignment(t *testing.T) {
	got := hotBoxings(t, `
//tdb:hotpath
func boxAssign() any {
	v := 42
	var i any = v
	return i
}`)
	if len(got) != 1 || got[0] != "hot path boxes int into any" {
		t.Fatalf("boxings = %q, want one int into any", got)
	}
}

func TestHotpathBoxingAtCallArg(t *testing.T) {
	got := hotBoxings(t, `
func take(v any)             {}
func takeVariadic(vs ...any) {}

//tdb:hotpath
func boxCall(xs []any) {
	take(7)
	takeVariadic(1, 2)
	take(nil)
	takeVariadic(xs...)
}`)
	// 7 boxes, 1 and 2 box through the variadic tail; nil and the
	// spread xs... do not.
	if len(got) != 3 {
		t.Errorf("boxings = %q, want 3", got)
	}
}

func TestHotpathBoxingAtSend(t *testing.T) {
	got := hotBoxings(t, `
//tdb:hotpath
func boxSend(ch chan any) {
	ch <- 5
}`)
	if len(got) != 1 {
		t.Errorf("send boxings = %q, want 1", got)
	}
}

func TestHotpathNoBoxingBetweenInterfaces(t *testing.T) {
	got := hotBoxings(t, `
//tdb:hotpath
func passThrough(v any) any {
	var w any = v
	return w
}`)
	if len(got) != 0 {
		t.Errorf("boxings = %q, want none (interface-to-interface)", got)
	}
}

func TestHotpathBoxingInCompositeLit(t *testing.T) {
	got := hotBoxings(t, `
//tdb:hotpath
func boxLit() []any {
	return []any{1, "two"}
}`)
	if len(got) != 2 {
		t.Errorf("composite boxings = %q, want 2", got)
	}
}

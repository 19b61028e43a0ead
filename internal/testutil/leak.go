// Package testutil holds cross-package test helpers. Its only current
// export is the goroutine leak check that the engine, live ingestion and
// standing-query suites install: the fault-injection and
// governor work guarantees that every error path unwinds its workers, and
// this helper is how the tests hold that guarantee — any goroutine created
// by module code that survives the test is a failure, not a warning.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of *testing.T the helpers need. Taking the interface
// keeps this package free of a testing import, so it can never be linked
// into a release binary by accident.
type TB interface {
	Cleanup(func())
	Errorf(format string, args ...any)
	Helper()
}

// VerifyNoLeaks registers a cleanup that fails the test if any goroutine
// spawned by module code is still running when the test (and its other
// cleanups — Cleanup runs LIFO, so register this first) has finished.
// Goroutines are given a grace window to unwind: a worker observing a
// context cancellation or a closed quit channel needs a few scheduler
// rounds to reach its return, and flagging it mid-exit would make the
// check flaky exactly where it must be trustworthy.
func VerifyNoLeaks(t TB) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = moduleGoroutines()
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%d goroutine(s) spawned by module code leaked past the test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// moduleGoroutines snapshots every live goroutine and keeps the ones
// created by this module's code — the "created by tdb/..." line the
// runtime appends to each stack identifies the spawn site precisely, so
// test-runner and stdlib goroutines never count.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by tdb/") {
			out = append(out, g)
		}
	}
	return out
}

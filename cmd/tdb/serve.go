// Network-service mode: with -listen the shell process also serves the
// versioned wire protocol (see internal/server and the driver package);
// with -serve it runs headless until a signal drains it.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdb/internal/engine"
	"tdb/internal/server"
)

// serveOptions collects the network-service flags.
type serveOptions struct {
	maxConcurrent int
	maxQueue      int
	queueTimeout  time.Duration
	idleTimeout   time.Duration
	drainTimeout  time.Duration
}

// newServer assembles the protocol server over the shell's catalog,
// metrics registry and event journal, so network clients and shell
// statements observe one engine.
func newServer(sh *shell, o serveOptions) *server.Server {
	return server.New(server.Config{
		DB:       sh.db,
		Registry: sh.reg,
		Events:   sh.events,
		Exec: engine.Options{
			Profile: sh.profile, SlowQuery: sh.slowQuery,
		},
		Tenants: []server.TenantConfig{{
			Name: "default", MaxConcurrent: o.maxConcurrent, MaxQueue: o.maxQueue,
			QueueTimeout: o.queueTimeout, Govern: sh.govern,
		}},
		IdleTimeout: o.idleTimeout,
	})
}

// drainServer gracefully drains srv: new requests are refused, open
// subscription streams get a final drain event, in-flight queries finish
// (bounded by timeout).
func drainServer(srv *server.Server, timeout time.Duration, out io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_, _ = fmt.Fprintf(out, "drain: %v\n", err)
		return
	}
	_, _ = fmt.Fprintln(out, "server drained")
}

// serveUntilSignal blocks until a signal arrives on sigc, then drains
// srv. Split from runServe so a test can deliver a synthetic signal.
func serveUntilSignal(srv *server.Server, sigc <-chan os.Signal, drainTimeout time.Duration, out io.Writer) {
	sig := <-sigc
	_, _ = fmt.Fprintf(out, "received %s; draining (timeout %s)\n", sig, drainTimeout)
	drainServer(srv, drainTimeout, out)
}

// runServe is headless service mode: block until SIGINT or SIGTERM,
// then drain and return.
func runServe(srv *server.Server, drainTimeout time.Duration, out io.Writer) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	serveUntilSignal(srv, sigc, drainTimeout, out)
}

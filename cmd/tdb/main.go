// Command tdb is a small interactive shell for the temporal query engine:
// it loads temporal relations from CSV files, accepts Quel-style statements
// (terminated by a line containing only "go", INGRES-style), optimizes them
// through the paper's full pipeline — temporal-operator expansion, semantic
// optimization against declared integrity constraints, conventional
// pushdown, temporal operator recognition — and executes them with the
// stream algorithms, printing results, plans, and operator costs.
//
// Usage:
//
//	tdb -load Faculty=faculty.csv [-rankorder Faculty:Name:Rank=Assistant,Associate,Full[:continuous]] [-e query.quel]
//	    [-listen 127.0.0.1:8080 [-serve]] [-max-concurrent N] [-max-queue N] [-queue-timeout D]
//	    [-idle-timeout D] [-drain-timeout D] [-trace trace.jsonl]
//	    [-govern] [-profile] [-slow-query 250ms]
//	    [-faults "site=mode[:k=v...];..."]
//
// With -listen the process serves the versioned wire protocol under /v1 —
// sessions, queries, prepared statements, appends and subscription
// streams; the driver package is the database/sql client — alongside
// /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof,
// while the shell keeps running against the same catalog (shell live
// commands and network sessions share one set of live tables and
// standing queries). -serve drops the shell and runs headless until
// SIGINT or SIGTERM starts a graceful drain: new requests are refused,
// open subscription streams get a final drain event, and in-flight
// queries finish within -drain-timeout. The -max-concurrent, -max-queue
// and -queue-timeout flags set the default tenant's admission quota.
// With -trace every traced query appends its per-query spans to the
// given JSONL file, and the operational event journal streams there too,
// interleaved as JSON lines.
//
// -profile turns on per-query resource accounting: traced plans report
// allocs/op, B/op and the hot-loop counters per node in EXPLAIN ANALYZE
// output, and the executing goroutines carry pprof labels (tdb.query,
// tdb.node, tdb.op) so CPU and heap profiles from /debug/pprof slice by
// operator. -slow-query D journals any query slower than D.
//
// -govern arms the workspace governor: serial temporal joins whose
// measured workspace breaches the optimizer's admission ceiling degrade to
// the baseline sort-merge (an explain note and the
// tdb_governor_fallbacks_total counter record it), and standing queries
// are registered with the breaker (trip → re-admit → degrade/decline).
//
// -faults arms deterministic fault-injection failpoints for robustness
// drills, e.g. -faults "storage/page-read=error:n=3;live/append=delay:ms=5".
// The TDB_FAULTS environment variable is an equivalent spelling for
// harnesses that cannot pass flags. Disarmed failpoints cost one atomic
// load; see DESIGN.md for the site table and the spec grammar.
//
// Shell commands: \d (relations), \stats R, \explain on|off,
// \streams on|off, \trace on|off, \profile on|off, \metrics,
// \events [json], \faults [arm SPEC | reset], \q.
//
// Live ingestion: a "subscribe NAME (targets) where …" statement registers
// a standing temporal query (admitted incrementally when its Tables 1–3
// workspace characterization is bounded, degraded to periodic batch
// re-execution otherwise); \append REL v1,v2,… ingests one tuple,
// \live lists tables and standing queries, \deltas NAME polls a query's
// fresh result deltas, \verify NAME checks accumulated deltas against a
// batch re-execution, and \flush force-releases the reorder buffers.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"tdb/internal/algebra"
	"tdb/internal/constraints"
	"tdb/internal/engine"
	"tdb/internal/fault"
	"tdb/internal/interval"
	"tdb/internal/live"
	"tdb/internal/obs"
	"tdb/internal/optimizer"
	"tdb/internal/quel"
	"tdb/internal/relation"
	"tdb/internal/server"
	"tdb/internal/storage"
	"tdb/internal/value"
)

type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "NAME=path.csv — load a temporal relation (repeatable)")
	rankOrder := flag.String("rankorder", "", "REL:KEY:VAL=v1,v2,...[:continuous] — declare a chronological ordering")
	script := flag.String("e", "", "execute statements from this file and exit")
	listen := flag.String("listen", "", "serve the wire protocol (/v1), /metrics, expvar and pprof on this address (e.g. 127.0.0.1:8080)")
	serve := flag.Bool("serve", false, "headless service mode: no shell, serve -listen until SIGINT/SIGTERM drains the process")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission quota: concurrent queries per tenant (0 = server default)")
	maxQueue := flag.Int("max-queue", 0, "admission quota: queued admissions per tenant before rejection (0 = default, <0 = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission quota: longest a request waits for a slot (0 = server default)")
	idleTimeout := flag.Duration("idle-timeout", 0, "expire sessions idle for this long (0 = server default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on graceful drain when shutting the server down")
	traceFile := flag.String("trace", "", "append per-query JSONL trace spans to this file (also enables \\trace on)")
	govern := flag.Bool("govern", false, "abort-and-degrade joins whose workspace breaches the admission ceiling; govern standing queries")
	profile := flag.Bool("profile", false, "per-query resource accounting: allocs/B per node in the analyze tree, pprof labels by operator")
	slowQuery := flag.Duration("slow-query", 0, "journal queries slower than this duration (0 disables the slow-query log)")
	faults := flag.String("faults", "", `arm failpoints, e.g. "storage/page-read=error:n=3;live/append=delay:ms=5" (or TDB_FAULTS)`)
	flag.Parse()

	spec := *faults
	if spec == "" {
		spec = os.Getenv("TDB_FAULTS")
	}
	if spec != "" {
		if err := fault.Arm(spec); err != nil {
			fatal("%v", err)
		}
		for _, st := range fault.List() {
			fmt.Printf("failpoint armed: %s=%s\n", st.Site, st.Mode)
		}
	}

	db := engine.NewDB()
	for _, l := range loads {
		name, path, ok := strings.Cut(l, "=")
		if !ok {
			fatal("bad -load %q, want NAME=path", l)
		}
		rel, err := storage.LoadCSV(path, name, relation.TupleSchema)
		if err != nil {
			// Retry with the Faculty-style schema if the header differs.
			rel, err = loadFlexible(path, name)
			if err != nil {
				fatal("loading %s: %v", path, err)
			}
		}
		if err := db.Register(rel); err != nil {
			fatal("registering %s: %v", name, err)
		}
		fmt.Printf("loaded %s: %d rows\n", name, rel.Cardinality())
	}
	if *rankOrder != "" {
		ic, err := parseRankOrder(*rankOrder)
		if err != nil {
			fatal("%v", err)
		}
		if err := db.DeclareChronOrder(ic); err != nil {
			fatal("declaring constraint: %v", err)
		}
		fmt.Printf("declared chronological ordering on %s.%s\n", ic.Relation, ic.ValCol)
	}

	sh := &shell{db: db, explain: true, streams: true, out: os.Stdout, reg: obs.NewRegistry(),
		govern: *govern, profile: *profile, slowQuery: *slowQuery, events: obs.NewEventLog(obs.DefaultEventCap)}
	db.SetMetrics(sh.reg)
	defer storage.ObserveIO(nil)
	if *serve && *listen == "" {
		fatal("-serve requires -listen")
	}
	if *listen != "" {
		so := serveOptions{maxConcurrent: *maxConcurrent, maxQueue: *maxQueue,
			queueTimeout: *queueTimeout, idleTimeout: *idleTimeout, drainTimeout: *drainTimeout}
		srv := newServer(sh, so)
		addr, err := srv.Start(*listen)
		if err != nil {
			fatal("listen %s: %v", *listen, err)
		}
		sh.srv = srv
		fmt.Printf("serving tdb protocol %s on http://%s/%s/ (metrics /metrics, expvar /debug/vars, profiles /debug/pprof/)\n",
			server.Protocol, addr, server.Protocol)
		if *serve {
			runServe(srv, *drainTimeout, os.Stdout)
			return
		}
		// Interactive or scripted runs still drain before exiting, and a
		// signal mid-session drains in-flight network clients instead of
		// cutting them off — the shell's stdin loop cannot observe it.
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		// lint:allow goroutine-hygiene — exits the process after the drain; no joinable lifetime exists
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "received %s; draining\n", sig)
			drainServer(srv, *drainTimeout, os.Stderr)
			os.Exit(0)
		}()
		defer drainServer(srv, *drainTimeout, os.Stdout)
	}
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("open trace file: %v", err)
		}
		defer func() { _ = f.Close() }()
		sh.trace = true
		sh.traceOut = f
		// The event journal shares the trace sink: operational events
		// interleave with span batches as self-describing JSON lines.
		sh.events.SetSink(f)
	}
	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal("%v", err)
		}
		if err := sh.runStatements(string(data)); err != nil {
			fatal("%v", err)
		}
		return
	}
	sh.repl(os.Stdin)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tdb: "+format+"\n", args...)
	os.Exit(1)
}

// loadFlexible reads a CSV whose header defines the schema: every column
// named ValidFrom/ValidTo becomes a temporal attribute, others default to
// strings.
func loadFlexible(path, name string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	cols := strings.Split(strings.TrimSpace(header), ",")
	schemaCols := make([]relation.Column, len(cols))
	ts, te := -1, -1
	for i, c := range cols {
		kind := value.KindString
		if strings.EqualFold(c, "ValidFrom") || strings.EqualFold(c, "ValidTo") {
			kind = value.KindTime
		}
		schemaCols[i] = relation.Column{Name: c, Kind: kind}
		if strings.EqualFold(c, "ValidFrom") {
			ts = i
		}
		if strings.EqualFold(c, "ValidTo") {
			te = i
		}
	}
	schema, err := relation.NewSchema(schemaCols, ts, te)
	if err != nil {
		return nil, err
	}
	return storage.LoadCSV(path, name, schema)
}

func parseRankOrder(s string) (constraints.ChronOrder, error) {
	continuous := false
	if strings.HasSuffix(s, ":continuous") {
		continuous = true
		s = strings.TrimSuffix(s, ":continuous")
	}
	head, vals, ok := strings.Cut(s, "=")
	if !ok {
		return constraints.ChronOrder{}, fmt.Errorf("bad -rankorder %q", s)
	}
	parts := strings.Split(head, ":")
	if len(parts) != 3 {
		return constraints.ChronOrder{}, fmt.Errorf("bad -rankorder head %q, want REL:KEY:VAL", head)
	}
	return constraints.ChronOrder{
		Relation: parts[0], KeyCol: parts[1], ValCol: parts[2],
		Order: strings.Split(vals, ","), Continuous: continuous,
	}, nil
}

type shell struct {
	db      *engine.DB
	explain bool
	streams bool
	trace   bool
	out     io.Writer
	// reg accumulates metrics across queries; traceOut, when set, receives
	// every traced query's spans as JSONL.
	reg      *obs.Registry
	traceOut io.Writer
	// govern arms the workspace governor for batch joins and the breaker
	// for standing queries.
	govern bool
	// profile turns on per-query resource accounting (allocs/B per node,
	// pprof labels); slowQuery journals queries slower than the cutoff;
	// events is the bounded operational journal behind \events.
	profile   bool
	slowQuery time.Duration
	events    *obs.EventLog
	// liveMgr owns live tables and standing queries; created on the first
	// subscribe or \append. When srv is set (the process is serving the
	// wire protocol) the server's manager is used instead, so shell
	// commands and network sessions share one set of live tables and
	// standing queries.
	liveMgr *live.Manager
	srv     *server.Server
}

// liveManager lazily creates the live manager over the shell's database.
func (sh *shell) liveManager() *live.Manager {
	if sh.liveMgr == nil {
		sh.liveMgr = live.NewManager(sh.db, sh.reg, engine.Options{
			Registry: sh.reg, Events: sh.events, SlowQuery: sh.slowQuery})
	}
	return sh.liveMgr
}

// withLive runs fn against the live manager: the server's, under its
// exclusive catalog lock, when the process is serving network clients;
// the shell's own otherwise.
func (sh *shell) withLive(fn func(*live.Manager) error) error {
	if sh.srv != nil {
		return sh.srv.WithLive(fn)
	}
	return fn(sh.liveManager())
}

// hasLive reports whether any live state can exist yet.
func (sh *shell) hasLive() bool { return sh.srv != nil || sh.liveMgr != nil }

// printf writes best-effort shell output; a broken pipe on interactive
// output is not worth propagating through every display path.
func (sh *shell) printf(format string, args ...any) {
	_, _ = fmt.Fprintf(sh.out, format, args...)
}

func (sh *shell) println(args ...any) {
	_, _ = fmt.Fprintln(sh.out, args...)
}

func (sh *shell) print(args ...any) {
	_, _ = fmt.Fprint(sh.out, args...)
}

// repl reads shell commands and statements from in until \q or the end of
// the input. A backslash line that names no command is reported and never
// enters the statement buffer.
func (sh *shell) repl(in io.Reader) {
	sh.println(`tdb — temporal query shell. End statements with a line "go"; \q quits.`)
	sc := bufio.NewScanner(in)
	var buf strings.Builder
	for {
		sh.print("tdb> ")
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\q`:
			return
		case trimmed == `\d`:
			sh.describe()
			continue
		case strings.HasPrefix(trimmed, `\stats `):
			sh.statsOf(strings.TrimSpace(strings.TrimPrefix(trimmed, `\stats`)))
			continue
		case trimmed == `\explain on`, trimmed == `\explain off`:
			sh.explain = trimmed == `\explain on`
			continue
		case trimmed == `\streams on`, trimmed == `\streams off`:
			sh.streams = trimmed == `\streams on`
			continue
		case trimmed == `\trace on`, trimmed == `\trace off`:
			sh.trace = trimmed == `\trace on`
			continue
		case trimmed == `\profile on`, trimmed == `\profile off`:
			sh.profile = trimmed == `\profile on`
			continue
		case trimmed == `\metrics`:
			sh.metrics()
			continue
		case trimmed == `\events`, trimmed == `\events json`:
			sh.showEvents(strings.HasSuffix(trimmed, "json"))
			continue
		case trimmed == `\faults` || strings.HasPrefix(trimmed, `\faults `):
			sh.faults(strings.TrimSpace(strings.TrimPrefix(trimmed, `\faults`)))
			continue
		case trimmed == `\live`:
			sh.liveStatus()
			continue
		case trimmed == `\flush`:
			sh.flushLive()
			continue
		case strings.HasPrefix(trimmed, `\append `):
			sh.appendRow(strings.TrimSpace(strings.TrimPrefix(trimmed, `\append`)))
			continue
		case strings.HasPrefix(trimmed, `\deltas `):
			sh.pollDeltas(strings.TrimSpace(strings.TrimPrefix(trimmed, `\deltas`)))
			continue
		case strings.HasPrefix(trimmed, `\verify `):
			sh.verifyStanding(strings.TrimSpace(strings.TrimPrefix(trimmed, `\verify`)))
			continue
		case strings.HasPrefix(trimmed, `\`):
			sh.printf("unknown command %s\n", trimmed)
			continue
		case strings.EqualFold(trimmed, "go"):
			if err := sh.runStatements(buf.String()); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
			buf.Reset()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
	}
}

func (sh *shell) describe() {
	for _, name := range sh.db.Names() {
		rel, err := sh.db.Relation(name)
		if err != nil {
			continue
		}
		sh.printf("%s%s  [%d rows]\n", name, rel.Schema, rel.Cardinality())
	}
}

// metrics renders the registry in the Prometheus text format.
func (sh *shell) metrics() {
	if err := sh.reg.WritePrometheus(sh.out); err != nil {
		sh.printf("metrics: %v\n", err)
	}
}

// showEvents renders the operational event journal (\events): slow
// queries, governor fallbacks, breaker trips.
// With asJSON it dumps the buffer as JSONL instead.
func (sh *shell) showEvents(asJSON bool) {
	if asJSON {
		if err := sh.events.WriteJSONL(sh.out); err != nil {
			sh.printf("events: %v\n", err)
		}
		return
	}
	evs := sh.events.Events()
	if len(evs) == 0 {
		sh.println("events: journal empty")
		return
	}
	if d := sh.events.Dropped(); d > 0 {
		sh.printf("events: %d buffered (%d older dropped)\n", len(evs), d)
	}
	for _, e := range evs {
		keys := make([]string, 0, len(e.Detail))
		for k := range e.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var detail strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&detail, " %s=%s", k, e.Detail[k])
		}
		sh.printf("#%-4d %s  %-18s %s%s\n",
			e.Seq, time.Unix(0, e.TimeNS).Format("15:04:05.000"), e.Kind, e.Query, detail.String())
	}
}

// faults handles \faults: bare lists the declared sites and what is armed,
// "arm SPEC" arms a schedule, "reset" disarms everything.
func (sh *shell) faults(arg string) {
	switch {
	case arg == "":
		armed := map[string]fault.Status{}
		for _, st := range fault.List() {
			armed[st.Site] = st
		}
		sites := fault.Sites()
		names := make([]string, 0, len(sites))
		for name := range sites {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if st, ok := armed[name]; ok {
				sh.printf("%-26s ARMED %s (hits %d, fires %d) — %s\n",
					name, st.Mode, st.Hits, st.Fires, sites[name])
				continue
			}
			sh.printf("%-26s disarmed — %s\n", name, sites[name])
		}
	case arg == "reset":
		fault.Reset()
		sh.println("all failpoints disarmed")
	case strings.HasPrefix(arg, "arm "):
		spec := strings.TrimSpace(strings.TrimPrefix(arg, "arm"))
		if err := fault.Arm(spec); err != nil {
			sh.printf("faults: %v\n", err)
			return
		}
		for _, st := range fault.List() {
			sh.printf("failpoint armed: %s=%s\n", st.Site, st.Mode)
		}
	default:
		sh.println(`\faults wants: \faults | \faults arm SPEC | \faults reset`)
	}
}

// appendRow handles \append REL v1,v2,… — one tuple into a live table,
// values matched positionally against the relation schema.
func (sh *shell) appendRow(arg string) {
	name, rest, ok := strings.Cut(arg, " ")
	if !ok {
		sh.println(`\append wants: \append REL v1,v2,...`)
		return
	}
	rel, err := sh.db.Relation(name)
	if err != nil {
		sh.printf("append: %v\n", err)
		return
	}
	vals := strings.Split(rest, ",")
	if len(vals) != rel.Schema.Arity() {
		sh.printf("append: %d values for %s%s\n", len(vals), name, rel.Schema)
		return
	}
	row := make(relation.Row, len(vals))
	for i, c := range rel.Schema.Cols {
		s := strings.TrimSpace(vals[i])
		switch c.Kind {
		case value.KindString:
			row[i] = value.String_(strings.Trim(s, `"`))
		case value.KindTime:
			var n int64
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
				sh.printf("append: column %s wants a time, got %q\n", c.Name, s)
				return
			}
			row[i] = value.TimeVal(interval.Time(n))
		case value.KindInt:
			var n int64
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
				sh.printf("append: column %s wants an integer, got %q\n", c.Name, s)
				return
			}
			row[i] = value.Int(n)
		default:
			sh.printf("append: column %s has unsupported kind\n", c.Name)
			return
		}
	}
	if err := sh.withLive(func(m *live.Manager) error {
		if err := m.Append(name, row); err != nil {
			return err
		}
		t := m.Table(name)
		sh.printf("appended to %s (watermark %d, buffered %d, released %d)\n",
			name, t.Watermark(), t.Buffered(), t.Released())
		return nil
	}); err != nil {
		sh.printf("append: %v\n", err)
	}
}

// liveStatus renders live tables and standing queries for \live.
func (sh *shell) liveStatus() {
	if !sh.hasLive() {
		sh.println("live: nothing ingested or subscribed")
		return
	}
	_ = sh.withLive(func(m *live.Manager) error {
		for _, t := range m.Tables() {
			sh.printf("table %s: watermark %d, buffered %d, released %d, rejected %d\n",
				t.Name(), t.Watermark(), t.Buffered(), t.Released(), t.Rejected())
		}
		for _, q := range m.Queries() {
			sh.printf("query %s: %s — %d deltas, workspace %d (bound %.0f), %s\n",
				q.Name(), q.Explain(), q.Emitted(), q.Workspace(), q.Bound(), q.Suspended())
		}
		return nil
	})
}

// flushLive force-releases every reorder buffer (\flush).
func (sh *shell) flushLive() {
	if !sh.hasLive() {
		sh.println("live: nothing to flush")
		return
	}
	if err := sh.withLive(func(m *live.Manager) error { return m.Flush() }); err != nil {
		sh.println("flush: " + err.Error())
	}
	sh.liveStatus()
}

// pollDeltas handles \deltas NAME: poll the standing query and print the
// fresh delta rows.
func (sh *shell) pollDeltas(name string) {
	if err := sh.withLive(func(m *live.Manager) error {
		q := m.Query(name)
		if q == nil {
			sh.printf("no standing query %q\n", name)
			return nil
		}
		rows, err := q.Poll()
		if err != nil {
			return err
		}
		if schema := q.Schema(); schema != nil {
			out := relation.New(name+"Δ", schema)
			out.Rows = rows
			sh.print(out)
			return nil
		}
		sh.printf("%sΔ: %d rows\n", name, len(rows))
		for _, row := range rows {
			sh.println("  " + row.String())
		}
		return nil
	}); err != nil {
		sh.printf("poll %s: %v\n", name, err)
	}
}

// verifyStanding handles \verify NAME: check accumulated deltas against a
// batch re-execution over the current contents.
func (sh *shell) verifyStanding(name string) {
	_ = sh.withLive(func(m *live.Manager) error {
		q := m.Query(name)
		if q == nil {
			sh.printf("no standing query %q\n", name)
			return nil
		}
		deltas, ref, err := q.Verify()
		if err != nil {
			sh.printf("verify %s: FAILED: %v\n", name, err)
			return nil
		}
		sh.printf("verify %s: OK — %d accumulated deltas consistent with %d-row batch re-execution\n",
			name, deltas, ref)
		return nil
	})
}

func (sh *shell) statsOf(name string) {
	if st := sh.db.Stats(name); st != nil {
		sh.println(st)
		return
	}
	sh.printf("no statistics for %q\n", name)
}

func (sh *shell) runStatements(src string) error {
	prog, err := quel.Parse(src)
	if err != nil {
		return err
	}
	queries, err := quel.Translate(prog, sh.db)
	if err != nil {
		return err
	}
	if sh.explain {
		sh.printf("-- normalized --\n%s", quel.Print(prog))
	}
	for _, q := range queries {
		res, err := optimizer.Optimize(q.Tree, sh.db, optimizer.Options{ICs: sh.db.ChronOrders()})
		if err != nil {
			return err
		}
		if sh.explain {
			for _, st := range res.Stages {
				sh.printf("-- %s --\n%s", st.Name, st.Tree)
			}
			for _, a := range res.Removed {
				sh.printf("semantic: removed redundant conjunct %s\n", a)
			}
		}
		if res.Contradiction {
			sh.println("semantic: query is contradictory — empty result without data access")
			if q.Into != "" {
				// The empty result still exists under its output schema, as
				// a non-contradictory empty query's does.
				sch, err := algebra.OutputSchema(res.Tree, sh.db)
				if err != nil {
					return err
				}
				if err := sh.db.Register(relation.New(q.Into, sch)); err != nil {
					return err
				}
			}
			continue
		}
		if q.Standing != "" {
			if err := sh.withLive(func(m *live.Manager) error {
				sq, err := m.Register(q.Standing, res.Tree,
					live.RegisterOptions{AllowDegrade: true, Govern: sh.govern})
				if err != nil {
					return err
				}
				sh.printf("subscribed %s: %s\n", sq.Name(), sq.Explain())
				return nil
			}); err != nil {
				return err
			}
			continue
		}
		opt := engine.Options{ForceNestedLoop: !sh.streams, Registry: sh.reg,
			GovernWorkspace: sh.govern, Profile: sh.profile,
			Events: sh.events, SlowQuery: sh.slowQuery}
		// A profiled run always gets a tracer: the per-node resource
		// columns render in the span tree, so -profile without -trace
		// would otherwise pay the accounting cost and show nothing.
		var tracer *obs.Tracer
		if sh.trace || sh.profile {
			tracer = obs.NewTracer()
			opt.Tracer = tracer
		}
		out, stats, err := engine.Run(sh.db, res.Tree, opt)
		if err != nil {
			return err
		}
		if q.Into != "" {
			out.Name = q.Into
			if err := sh.db.Register(out); err != nil {
				return err
			}
		}
		sh.print(out)
		if sh.explain {
			sh.print(stats)
		}
		if tracer != nil {
			sh.print(tracer.Tree())
			if sh.traceOut != nil {
				if err := tracer.WriteJSONL(sh.traceOut); err != nil {
					return fmt.Errorf("writing trace: %w", err)
				}
			}
		}
	}
	return nil
}

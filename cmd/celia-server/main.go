// Command celia-server exposes the CELIA engines over HTTP as a JSON
// service (see internal/api for the endpoint contract). Queries are
// served through internal/serving: an LRU result cache, singleflight
// request coalescing, and admission control sized from the machine's
// CPU count, with serving metrics at GET /debug/metrics.
//
// By default it serves ground-truth engines for all three paper
// applications; with -characterization files it serves engines rebuilt
// from persisted measurement results instead.
//
// Example:
//
//	celia-server -addr :8080 -cache-mb 64 -cache-ttl 15m -max-concurrent 8
//	curl -s localhost:8080/v1/apps
//	curl -s -X POST localhost:8080/v1/mincost \
//	  -d '{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}'
//	curl -s localhost:8080/debug/metrics
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight analyses for up to -drain-timeout before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ec2"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("celia-server: ")
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		chars = flag.String("characterizations", "", "comma-separated characterization JSON files (default: ground-truth engines for all apps)")
		nodes = flag.Int("max-nodes", 5, "per-type node limit of the configuration space")

		cacheMB  = flag.Int("cache-mb", 64, "result cache capacity in MiB (0 disables caching)")
		cacheTTL = flag.Duration("cache-ttl", 15*time.Minute, "result cache entry lifetime (0 = never expire)")
		maxConc  = flag.Int("max-concurrent", 0, "concurrent engine runs (0 = number of CPUs)")
		queue    = flag.Int("queue-depth", 0, "admitted requests waiting beyond the worker pool (0 = 4x max-concurrent, -1 = none)")
		reqTO    = flag.Duration("request-timeout", 60*time.Second, "per-request deadline from admission to completion")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
		billing  = flag.String("billing", "persecond", "billing policy for every mounted engine: persecond (Eq. 5 verbatim), perhour (2017-era started-hour billing)")
		snapDir  = flag.String("snapshot-dir", "", "directory of frontier-index snapshots, created if missing: restored at startup (skipping the index build) and rewritten after start-up builds; empty disables persistence")
	)
	flag.Parse()

	engines := map[string]*core.Engine{}
	if *chars == "" {
		for _, name := range cli.AppNames() {
			app, err := cli.LookupApp(name)
			if err != nil {
				log.Fatal(err)
			}
			eng, err := cli.BuildEngine(app, false)
			if err != nil {
				log.Fatal(err)
			}
			engines[name] = eng
		}
	} else {
		for _, path := range strings.Split(*chars, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				log.Fatal(err)
			}
			c, err := store.Load(f)
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			eng, err := c.Engine(ec2.Oregon(), *nodes)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			engines[c.App] = eng
		}
	}

	switch *billing {
	case "persecond":
		// Engines default to per-second; nothing to set.
	case "perhour":
		for _, eng := range engines {
			eng.SetBilling(model.PerHour)
		}
	default:
		log.Fatalf("unknown billing %q (persecond, perhour)", *billing)
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // disabled
	}
	ttl := *cacheTTL
	if ttl <= 0 {
		ttl = -1 // never expire
	}
	fd, err := serving.NewFrontdoor(engines, serving.Config{
		CacheBytes:     cacheBytes,
		CacheTTL:       ttl,
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queue,
		RequestTimeout: *reqTO,
		SnapshotDir:    *snapDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Start-up: restore what -snapshot-dir holds, then build every other
	// index in the background, one app at a time, and rewrite its
	// snapshot. A missing/corrupt/stale artifact is not fatal: its app
	// stays pending, and a query that reaches it joins the build instead
	// of scanning (DESIGN.md §11). A directory the builds cannot save
	// into is: every restart would build again.
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for app, err := range fd.LoadSnapshots() {
		log.Printf("warning: %s: %v (building the index at start-up)", app, err)
	}
	// One line per engine, the state /readyz reports: built when
	// restored, pending while its start-up build runs. A bypassed engine
	// always scans (an uncertified billing policy, or a catalog past the
	// pair cap).
	statuses, _ := fd.IndexStatuses()
	for _, name := range fd.Apps() {
		st := statuses[name]
		log.Printf("index %s: %s%s", name, st.State, suffixReason(st.Reason))
	}
	// The live heap is mostly the immutable frontier-index tables. At
	// the default GOGC of 100 a busy server lets its garbage grow to
	// their size again before each collection, which roughly doubles the
	// resident set for nothing the tables need; 50 collects at half their
	// size. It is set once the snapshots are restored: a restore's
	// garbage is its own payload, and collecting twice as often there
	// would only slow start-up. An operator's GOGC still wins.
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(50)
	}
	srv, err := api.NewServer(fd, api.WithApps(cli.Apps()))
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(*addr, srv, *reqTO)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("serving %d engines on %s (cache %d MiB, ttl %v, %d workers)",
		len(engines), *addr, *cacheMB, *cacheTTL, *maxConc)

	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		srv.SetDraining(true) // /readyz flips to 503 so balancers stop routing here
		log.Printf("signal received, draining for up to %v", *drainTO)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		// Join the start-up index builds so a final snapshot save is not
		// torn by process exit (the write itself is atomic regardless).
		fd.Wait()
		log.Printf("drained, bye")
	}
}

// idleTimeout is how long a connection may wait for its next request.
const idleTimeout = 120 * time.Second

// newHTTPServer sets the server's timeouts. net/http times a
// connection's first request from the accept, and every later one from
// its first byte. A keep-alive client may dial a spare connection and
// leave it in its pool, so a fresh connection gets as long to send its
// first request as a kept-alive one gets to send its next; a shorter
// header timeout would close such a connection unused and make the
// client dial again. A request then has 10 s past that for its body.
func newHTTPServer(addr string, h http.Handler, requestTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: idleTimeout,
		ReadTimeout:       idleTimeout + 10*time.Second,
		// Analyses can legitimately take tens of seconds under load;
		// the write timeout must outlast the request deadline.
		WriteTimeout: requestTimeout + 10*time.Second,
		IdleTimeout:  idleTimeout,
	}
}

// suffixReason formats an optional status reason for startup logs.
func suffixReason(reason string) string {
	if reason == "" {
		return ""
	}
	return " (" + reason + ")"
}

// Command rentpland is the multi-tenant rental-planning daemon: an
// HTTP/JSON service that maps plan requests onto the rentplan solver stack
// through a bounded worker pool, a shared scenario-tree cache, and
// per-tenant warm-started rolling re-plans. See DESIGN.md §13.
//
// Usage:
//
//	rentpland -addr :8080 -workers 4 -queue 64 -budget 250ms
//
// Endpoints: POST /v1/plan, GET /v1/healthz, GET /v1/metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rentplan/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "admission queue cap (0 = 4x workers)")
		budget  = flag.Duration("budget", 250*time.Millisecond, "default per-request solve budget (0 = unbounded)")
		maxBud  = flag.Duration("max-budget", 5*time.Second, "ceiling on request-supplied budgets")
		trees   = flag.Int("cache-trees", 256, "scenario-tree cache capacity")
	)
	flag.Parse()
	if err := validateFlags(*workers, *queue, *budget, *maxBud, *trees); err != nil {
		fmt.Fprintln(os.Stderr, "rentpland:", err)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Workers:       *workers,
		Queue:         *queue,
		DefaultBudget: *budget,
		MaxBudget:     *maxBud,
		CacheTrees:    *trees,
	})
	hs := newHTTPServer(*addr, srv)

	// Graceful shutdown: stop accepting, let in-flight solves finish (their
	// request contexts stay alive until Shutdown's grace period lapses).
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(done)
	}()

	log.Printf("rentpland listening on %s (workers=%d queue=%d budget=%s)",
		*addr, *workers, *queue, *budget)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

const (
	// readTimeout bounds reading one request, body included; the body is
	// capped at 4 MiB, so this admits clients sending 140 KiB/s or more.
	readTimeout = 30 * time.Second
	// idleTimeout bounds a keep-alive connection's wait for its next
	// request. It is set because net/http would otherwise use readTimeout,
	// and closing an idle connection just as a client reuses it fails that
	// client's POST, which its transport does not retry.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer wraps the daemon in an http.Server whose timeouts bound
// every phase of a connection. The write timeout runs from the end of the
// request headers, so it covers the body read plus the longest an admitted
// request can take (serve.Server.MaxRequestTime, from -queue and
// -max-budget); with -budget 0 nothing bounds a solve, and no write timeout
// is set.
func newHTTPServer(addr string, srv *serve.Server) *http.Server {
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	if d := srv.MaxRequestTime(); d > 0 {
		hs.WriteTimeout = readTimeout + d
	}
	return hs
}

// validateFlags rejects nonsensical flag combinations before the daemon
// binds its port; usage errors exit 2.
func validateFlags(workers, queue int, budget, maxBud time.Duration, trees int) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0", workers)
	}
	if queue < 0 {
		return fmt.Errorf("-queue %d must be >= 0", queue)
	}
	if workers > 0 && queue > 0 && queue < workers {
		return fmt.Errorf("-queue %d smaller than -workers %d", queue, workers)
	}
	if budget < 0 {
		return fmt.Errorf("-budget %s must be >= 0", budget)
	}
	if maxBud <= 0 {
		return fmt.Errorf("-max-budget %s must be > 0", maxBud)
	}
	if budget > maxBud {
		return fmt.Errorf("-budget %s exceeds -max-budget %s", budget, maxBud)
	}
	if trees <= 0 {
		return fmt.Errorf("-cache-trees %d must be > 0", trees)
	}
	return nil
}

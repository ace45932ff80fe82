// Command hls-serve runs the compile-service daemon: an HTTP/JSON front
// end over the flow-evaluation engine with a shared persistent result
// store, per-client fair admission with load shedding, in-flight request
// deduplication, per-flow circuit breakers, and graceful drain on
// SIGTERM. Multiple daemons and CLIs may point at the same -store
// directory; every record is digest-verified, so a corrupted file is
// quarantined and recomputed, never served.
//
// Usage:
//
//	hls-serve -store ./hls-store                   # defaults: :8080
//	hls-serve -addr 127.0.0.1:9000 -slots 4
//	hls-dse -kernel gemm -server http://127.0.0.1:8080
//
// Endpoints: POST /v1/eval, POST /v1/sweep (NDJSON stream), GET
// /healthz, /readyz, /stats.
//
// Exit codes: 0 clean shutdown (drain completed); 1 startup or serve
// failure; 2 drain timed out and in-flight work was abandoned (the
// pending journal re-admits it on the next start).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection bounds: a client has readHeaderTimeout to send its request
// headers, and a keep-alive connection idle for idleTimeout is closed, so
// slow or abandoned clients cannot pin connections. Request bodies are
// bounded by serve.MaxRequestBytes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	store := flag.String("store", "hls-store", "shared store directory (results, incremental units, pending journal)")
	workers := flag.Int("workers", 0, "engine workers per evaluation batch (0 = GOMAXPROCS)")
	slots := flag.Int("slots", 0, "concurrently admitted requests (0 = default 2)")
	queue := flag.Int("queue", 0, "per-client queue depth before shedding 429s (0 = default 8)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = 2m)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive pass failures that open a flow's circuit breaker (0 = default 5, negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open interval before the breaker probes the flow again (0 = 30s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight work before abandoning it")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		StoreDir:         *store,
		Workers:          *workers,
		Slots:            *slots,
		QueueDepth:       *queue,
		DefaultDeadline:  *deadline,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hls-serve listening on http://%s (store %s)\n", ln.Addr(), *store)

	hs := &http.Server{Handler: srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "hls-serve: %s: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	_ = hs.Shutdown(ctx)
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "hls-serve: drain timed out; pending journal will re-admit unfinished work")
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "hls-serve: drained cleanly")
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "hls-serve:", err)
	os.Exit(1)
}

// Command sdbpd is the simulation service: a long-running HTTP server
// that accepts declarative exp.Spec experiments as JSON jobs, executes
// them through the fault-tolerant runner pool, and answers with
// deterministic, content-addressed result manifests.
//
//	sdbpd -addr :8344 -store-dir sdbpd-store
//
// Robustness is the point, not an afterthought (see internal/serve):
// a full admission queue answers 429 + Retry-After, identical
// concurrent submissions cost one simulation, results are stored by
// the canonical spec's content address, and SIGINT/SIGTERM drain
// in-flight jobs into the store. With -store-dir the store is a
// directory, so a server restarted on it, after a drain or a crash,
// answers every finished job as a byte-identical cache hit; without
// it results live in the process memo.
//
//	POST /v1/jobs               submit an exp.Spec JSON body; returns the manifest
//	GET  /v1/results/ADDR       fetch a cached manifest by content address
//	GET  /v1/traces/ADDR        a job's pipeline trace (?format=chrome for chrome://tracing)
//	GET  /v1/jobs/ADDR/events   live job lifecycle + progress as server-sent events
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 while draining)
//	GET  /metrics               obs.Snapshot JSON; Prometheus text with
//	                            ?format=prom or a text/plain Accept header
//
// See cmd/sdbpctl for the matching submit/poll client.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"sdbp/internal/runner"
	"sdbp/internal/serve"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon with its context and streams made explicit:
// tests drive it in-process and stop it by canceling parent, which
// takes the same drain path as a delivered SIGTERM.
func run(parent context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdbpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free one)")
	queue := fs.Int("queue", 64, "admission queue capacity (jobs waiting to run); a full queue answers 429")
	workers := fs.Int("workers", 0, "max concurrently running jobs (0 = NumCPU)")
	timeout := fs.Duration("timeout", 10*time.Minute, "per-job timeout (0 = none)")
	storeDir := fs.String("store-dir", "", "keep results in this directory, across restarts (empty = in memory)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown drain deadline after SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "sdbpd: ", log.LstdFlags)

	var store serve.Store // nil: the in-memory default
	if *storeDir != "" {
		ds, err := serve.NewDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "sdbpd:", err)
			return 1
		}
		store = ds
	}

	// SIGINT/SIGTERM start the drain (shared helper with
	// cmd/experiments), so containerized stops store what is running.
	ctx, stop := runner.SignalContext(parent)
	defer stop()

	srv := serve.New(serve.Config{
		Queue:      *queue,
		Workers:    *workers,
		JobTimeout: *timeout,
		Store:      store,
		Log:        logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sdbpd:", err)
		return 1
	}
	// The listening line is the contract with tests and the smoke
	// script: it names the bound address (with the resolved port).
	fmt.Fprintf(stderr, "sdbpd: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "sdbpd:", err)
		return 1
	case <-ctx.Done():
	}

	logger.Printf("draining: in-flight jobs finish and store; queued work answers 503 (grace %s)", *grace)
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		code = 1
	}
	if err := hs.Shutdown(shCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
		code = 1
	}
	logger.Printf("drained and stopped")
	return code
}

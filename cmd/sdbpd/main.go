// Command sdbpd is the simulation service: a long-running HTTP server
// that accepts declarative exp.Spec experiments as JSON jobs, executes
// them through the fault-tolerant runner pool, and answers with
// deterministic, content-addressed result manifests.
//
//	sdbpd -addr :8344 -checkpoint sdbpd.ckpt -resume -store disk
//
// Robustness is the point, not an afterthought (see internal/serve):
// a full admission queue answers 429 + Retry-After, identical
// concurrent submissions cost one simulation, results are cached by
// the canonical spec's content address, and SIGINT/SIGTERM drain
// in-flight jobs into the JSONL checkpoint so a restarted server
// resumes byte-identically.
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

	"sdbp/internal/obs"
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
	retries := fs.Int("retries", 0, "per-job retry budget for transient failures")
	checkpoint := fs.String("checkpoint", "", "journal completed jobs to this JSONL file for crash-safe resume")
	resume := fs.Bool("resume", false, "load the checkpoint so finished jobs are not re-simulated")
	storeKind := fs.String("store", "mem", "result cache backend: mem or disk")
	storeDir := fs.String("store-dir", "sdbpd-store", "directory for -store disk")
	grace := fs.Duration("grace", 30*time.Second, "shutdown drain deadline after SIGINT/SIGTERM")
	logLevel := fs.String("log-level", "info", "minimum structured log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "sdbpd:", err)
		return 2
	}
	obs.SetDefault(obs.NewLogger(stderr, level))
	logger := log.New(stderr, "sdbpd: ", log.LstdFlags)

	var store serve.Store
	switch *storeKind {
	case "mem":
		store = serve.NewMemStore()
	case "disk":
		ds, err := serve.NewDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintln(stderr, "sdbpd:", err)
			return 1
		}
		store = ds
	default:
		fmt.Fprintf(stderr, "sdbpd: unknown -store %q (valid: mem, disk)\n", *storeKind)
		return 2
	}

	var ck *runner.Checkpoint
	if *resume && *checkpoint == "" {
		*checkpoint = "sdbpd.ckpt"
	}
	if *checkpoint != "" {
		c, err := runner.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintln(stderr, "sdbpd:", err)
			return 1
		}
		ck = c
		defer ck.Close()
		if *resume {
			logger.Printf("resume: %d checkpointed jobs loaded from %s", ck.Len(), *checkpoint)
		}
	}

	// SIGINT/SIGTERM start the drain (shared helper with
	// cmd/experiments), so containerized stops checkpoint cleanly.
	ctx, stop := runner.SignalContext(parent)
	defer stop()

	srv := serve.New(serve.Config{
		Queue:      *queue,
		Workers:    *workers,
		JobTimeout: *timeout,
		Retries:    *retries,
		Store:      store,
		Checkpoint: ck,
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

	logger.Printf("draining: in-flight jobs finish and checkpoint; queued work answers 503 (grace %s)", *grace)
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

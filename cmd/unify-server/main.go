// Command unify-server serves a Unify system over HTTP.
//
//	unify-server -dataset sports -size 1000 -addr :8080
//
//	curl -s localhost:8080/v1/health
//	curl -s -X POST localhost:8080/v1/query \
//	     -d '{"query": "How many questions about football have more than 500 views?"}'
//	curl -s -X POST localhost:8080/v1/plan -d '{"query": "..."}'   # EXPLAIN
//	curl -s localhost:8080/v1/operators
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"unify"
	"unify/internal/server"
)

// Connection hygiene for a listener exposed to arbitrary clients. There is
// deliberately no write timeout: a query legitimately runs for as long as
// its -timeout allows, and the admission queue already bounds concurrency.
const (
	// readHeaderTimeout bounds how long a client may dribble request
	// headers (slowloris) before the connection is dropped.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout reclaims keep-alive connections with no request in flight.
	idleTimeout = 2 * time.Minute
	// drainTimeout is how long in-flight queries get to finish after
	// SIGINT/SIGTERM before the process exits anyway.
	drainTimeout = 30 * time.Second
)

func main() {
	var (
		dataset       = flag.String("dataset", "sports", "dataset: sports, ai, law, wiki")
		size          = flag.Int("size", 0, "corpus size (0 = paper size)")
		addr          = flag.String("addr", ":8080", "listen address")
		maxConcurrent = flag.Int("max-concurrent", server.DefaultMaxConcurrent,
			"queries executing at once (admission control)")
		maxQueue = flag.Int("max-queue", server.DefaultMaxQueue,
			"queries waiting in the admission queue before 429s")
		timeout   = flag.Duration("timeout", 0, "per-query wall-clock bound, queue wait included (0 = server default)")
		maxTraces = flag.Int("max-traces", 0,
			"retained query traces for /v1/traces (0 = default, negative disables retention)")
		maxTraceSpans = flag.Int("max-trace-spans", 0,
			"spans retained per stored trace (0 = default)")
		slowQuery = flag.Duration("slow-query", 0,
			"log queries whose virtual time meets this threshold (0 = off)")
		machines = flag.Int("machines", 1, "simulated cluster width (1 = the paper's single machine)")
		batch    = flag.Bool("batch", false,
			"coalesce compatible operator LLM calls across concurrent queries (continuous batching)")
		views = flag.Bool("views", false,
			"materialize semantic views (serve repeated per-doc work from content-hash-keyed columns)")
	)
	flag.Parse()

	opts := []unify.Option{
		unify.WithDataset(*dataset),
		unify.WithSize(*size),
		unify.WithTrainSCE(),
		unify.WithTraceRetention(*maxTraces, *maxTraceSpans),
		unify.WithSlowQueryVTime(*slowQuery),
		unify.WithMachines(*machines),
	}
	if *batch {
		opts = append(opts, unify.WithBatching())
	}
	if *views {
		opts = append(opts, unify.WithViews())
	}
	fmt.Printf("opening %s corpus...\n", *dataset)
	sys, err := unify.New(opts...)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(sys)
	srv.SetLimits(*maxConcurrent, *maxQueue)
	if *timeout > 0 {
		srv.Timeout = *timeout
	}
	fmt.Printf("serving %d documents on %s (max %d concurrent, %d queued)\n",
		sys.Store.Len(), *addr, *maxConcurrent, *maxQueue)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err) // the listener failed (e.g. address in use)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Println("shutting down: draining in-flight queries...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

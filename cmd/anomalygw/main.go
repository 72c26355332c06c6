// Command anomalygw serves a fleet of anomalyd replicas as one node (see
// docs/RELIABILITY.md, "Replicated serving"):
//
//	anomalygw -replicas http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// It is the server anomalyd runs, with the replicas' models: at start it reads
// their GET /v1/models and serves every model they list, with their batch
// sizes and the sum of their workers, and it exits if no replica answers.
// Requests, the monitor and its trace windows, /v1/alerts, /v1/models and
// /metrics are the front's own; each batch its workers form is computed by
// one replica's /v1/detect/batch, hedged, retried and behind a per-replica
// circuit breaker (internal/gateway). The replicas keep no state.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated anomalyd base URLs (required), e.g. http://127.0.0.1:8080,http://127.0.0.1:8081")
	flag.Parse()
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(strings.TrimSuffix(u, "/")); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("anomalygw: -replicas is required")
	}

	// The forwards' root outlives the signal: in-flight requests finish
	// through the fleet during the graceful shutdown below.
	g, err := gateway.New(context.Background(), gateway.Config{Replicas: urls})
	if err != nil {
		log.Fatal("anomalygw: ", err)
	}
	// On the signal, restore its default (a second one kills the process).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	signalled := make(chan struct{})
	context.AfterFunc(ctx, func() { stop(); log.Print("shutting down..."); close(signalled) })

	log.Printf("gateway listening on %s, models %v over %d replicas: %s",
		*addr, g.Registry().Names(), len(urls), strings.Join(urls, ", "))
	if err := g.ListenAndServe(ctx, *addr, g); err != nil {
		log.Fatal("anomalygw: ", err)
	}
	<-signalled
	log.Print("bye")
}

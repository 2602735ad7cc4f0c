// Command rockgate routes simulation traffic across a fleet of
// rocksimd shards (see docs/SERVICE.md): a stateless gateway serving
// the same API as a single daemon — byte-identical responses — while
// placing every cell on its owning shard via a consistent-hash ring
// over the content-addressed cell key, so a popular cell is computed
// once per fleet.
//
// Usage:
//
//	rockgate -shards http://127.0.0.1:8321,http://127.0.0.1:8322
//	rockgate -addr :8420 -shard-concurrency 8 -probe-interval 2s
//
// Shard health is probed at start, on an interval, and on the request
// path: a dead or draining shard is ejected (its keys re-home to ring
// successors) and re-probed until it recovers. When every shard is
// saturated the gateway answers 429 with the largest Retry-After any
// shard hinted. The gateway is the same HTTP tier as rocksimd (a
// serve.Server over a fleet backend), so SIGTERM/SIGINT drain exactly
// like rocksimd: new work refused with 503, admitted work finishes,
// exit 0.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"rocksim/internal/faults"
	"rocksim/internal/gate"
	"rocksim/internal/serve"
	"rocksim/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8420", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://127.0.0.1:8321,http://127.0.0.1:8322")
	perShard := flag.Int("shard-concurrency", 8, "max concurrent requests per shard (also sizes the per-shard connection pool)")
	jobs := flag.Int("j", 0, "max cells in flight per grid across the fleet (0 = shard-concurrency x shards)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "gateway admission bound before 429")
	retryAfter := flag.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint on gateway 429 responses")
	busyAttempts := flag.Int("busy-attempts", gate.DefaultBusyAttempts, "per-cell waits on a shard 429 before trying a successor")
	busyWait := flag.Duration("busy-wait", gate.DefaultBusyWait, "cap on the per-attempt Retry-After sleep")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "shard health re-probe interval")
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog applied to every grid cell (0 = none)")
	faultSpec := flag.String("faults", "", "fault plan applied to every grid cell (faults grammar, or random:SEED)")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Minute, "drain deadline for open connections after SIGTERM")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "rockgate: bad -log-level:", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(log)

	targets := splitTargets(*shards)
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "rockgate: -shards is required")
		os.Exit(2)
	}

	base := sim.DefaultOptions()
	if *timeout > 0 {
		base.Timeout = *timeout
	}
	if *faultSpec != "" {
		plan, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rockgate: bad -faults:", err)
			os.Exit(2)
		}
		base.Faults = plan
	}

	g, err := gate.New(gate.Config{
		Targets:      targets,
		PerShard:     *perShard,
		Jobs:         *jobs,
		QueueDepth:   *queue,
		RetryAfter:   *retryAfter,
		BusyAttempts: *busyAttempts,
		BusyWait:     *busyWait,
		BaseOptions:  &base,
		Logger:       log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rockgate:", err)
		os.Exit(1)
	}
	defer g.Close()
	g.Fleet().Monitor().Start(*probeInterval)

	log.Info("listening", "addr", *addr, "shards", len(targets), "per_shard", *perShard)
	if err := g.ListenAndServe(*addr, *shutdownGrace); err != nil {
		fmt.Fprintln(os.Stderr, "rockgate:", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		t = strings.TrimSpace(t)
		if t != "" {
			out = append(out, strings.TrimRight(t, "/"))
		}
	}
	return out
}

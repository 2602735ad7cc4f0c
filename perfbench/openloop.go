package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// errRefused marks a request the service turned away (429 or 503). It
// counts as failed and as missing every latency limit.
var errRefused = errors.New("refused")

// sendFunc issues request i of a phase and reports whether its output
// was correct; an error of errRefused means the service refused it.
type sendFunc func(ctx context.Context, i int) error

// loopResult is one open-loop phase: a fixed rate held for a fixed
// number of requests.
type loopResult struct {
	Sent    int
	Failed  int
	Refused int
	// LatMS is each request's latency from its due time, in ms; a
	// failed or refused request reads +Inf so it misses every limit.
	LatMS []float64
	// LagMS is how late the generator handed each request over.
	LagMS []float64
}

// tail returns the phase's latency summary with failures as +Inf.
func (r loopResult) tail(want float64) summary { return summarize(r.LatMS, want) }

// failRatio is failed (refused included) over sent.
func (r loopResult) failRatio() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Sent)
}

// openLoop sends n requests at a fixed rate through conns workers. Each
// request is due at start + i/rate, and its latency is measured from
// that due time, so a stall delays every later request's clock too.
// Requests are never dropped: when every worker is busy they wait in
// the generator's queue. Each request gets timeout to complete.
func openLoop(ctx context.Context, rate float64, n, conns int, timeout time.Duration, send sendFunc) loopResult {
	res := loopResult{Sent: n, LatMS: make([]float64, n), LagMS: make([]float64, n)}
	if n == 0 {
		return res
	}
	// Sized to the number of sends, so the generator never blocks on a
	// busy worker and its lag measures only its own lateness.
	queue := make(chan int, n)
	due := make([]time.Time, n)
	var failed, refused atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				rctx, cancel := context.WithTimeout(ctx, timeout)
				err := send(rctx, i)
				cancel()
				if err != nil {
					failed.Add(1)
					if errors.Is(err, errRefused) {
						refused.Add(1)
					}
					res.LatMS[i] = math.Inf(1)
					continue
				}
				res.LatMS[i] = ms(time.Since(due[i]))
			}
		}()
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due[i] = start.Add(time.Duration(i) * interval)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		res.LagMS[i] = ms(time.Since(due[i]))
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.Failed = int(failed.Load())
	res.Refused = int(refused.Load())
	return res
}

// closedLoop sends n requests through conns workers, each sending its
// next request as soon as the previous one completes, and returns the
// completion rate (req/s) over the whole phase.
func closedLoop(ctx context.Context, conns, n int, timeout time.Duration, send sendFunc) (rate float64, failed int) {
	var next, nfailed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				rctx, cancel := context.WithTimeout(ctx, timeout)
				if err := send(rctx, i); err != nil {
					nfailed.Add(1)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	failed = int(nfailed.Load())
	return float64(n-failed) / time.Since(start).Seconds(), failed
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what the program returned for one request: up to two balances.
type outcome struct{ v1, v2 int64 }

// issuer sends request i of the stream through the deployment's one client
// handle and returns the balances the committed result reports.
type issuer func(ctx context.Context, i int, o op) (outcome, error)

// Request fates.
const (
	stOK      = iota // committed and the result delivered
	stFailed         // the client returned an error
	stTimeout        // the per-request deadline expired
	stRefused        // the open-loop generator found the outstanding cap full
)

// rec is the record of one request. start is the Issue call in a closed
// loop and the due time in the open loop; times are offsets from the run's
// base instant.
type rec struct {
	i          int32
	st         uint8
	start, end time.Duration
	out        outcome
}

// classify maps an Issue error to a fate.
func classify(err error) uint8 {
	switch {
	case err == nil:
		return stOK
	case errors.Is(err, context.DeadlineExceeded):
		return stTimeout
	default:
		return stFailed
	}
}

// closedLoop runs depth workers, each issuing the stream's next request as
// soon as its previous one resolved, until stopAt (an offset from base) or
// the stream is exhausted. It returns once every worker has finished.
func closedLoop(ctx context.Context, iss issuer, ops []op, depth int, base time.Time, stopAt, timeout time.Duration) (recs []rec, exhausted bool) {
	var next atomic.Int64
	var dry atomic.Bool
	per := make([][]rec, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []rec
			for time.Since(base) < stopAt && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					dry.Store(true)
					break
				}
				start := time.Since(base)
				rctx, cancel := context.WithTimeout(ctx, timeout)
				out, err := iss(rctx, i, ops[i])
				cancel()
				mine = append(mine, rec{i: int32(i), st: classify(err), start: start, end: time.Since(base), out: out})
			}
			per[w] = mine
		}()
	}
	wg.Wait()
	for _, p := range per {
		recs = append(recs, p...)
	}
	return recs, dry.Load()
}

// openLoop sends request i at base+arrivals[i] whether or not earlier ones
// have resolved. At most maxOut requests are outstanding; a request due
// while the cap is full is refused rather than queued, so a stall shows as
// refusals instead of unbounded memory. It returns once every sent request
// has resolved, with how late the generator ran at worst.
func openLoop(ctx context.Context, iss issuer, ops []op, arrivals []time.Duration, base time.Time, maxOut int, timeout time.Duration) (recs []rec, lateMax time.Duration) {
	recs = make([]rec, len(arrivals))
	n := 0 // arrivals dispatched; the rest were cut off by ctx
	sem := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	for i, due := range arrivals {
		if ctx.Err() != nil {
			break
		}
		n = i + 1
		if d := due - time.Since(base); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(base) - due; late > lateMax {
			lateMax = late
		}
		select {
		case sem <- struct{}{}:
		default:
			recs[i] = rec{i: int32(i), st: stRefused, start: due, end: due}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rctx, cancel := context.WithTimeout(ctx, timeout)
			out, err := iss(rctx, i, ops[i])
			cancel()
			recs[i] = rec{i: int32(i), st: classify(err), start: due, end: time.Since(base), out: out}
		}()
	}
	wg.Wait()
	return recs[:n], lateMax
}

package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// request performs operation i of a load phase. It returns once the reply
// is complete; the returned verify function (may be nil) checks the reply
// and runs after the latency is recorded, so output checks never count as
// latency.
type request func(ctx context.Context, worker, i int) (verify func() error, err error)

// phaseResult is what one load phase measured.
type phaseResult struct {
	latMS     []float64 // per completed request; from when it was due (open loop) or sent (closed loop)
	sendMS    []float64 // per completed request, from when it was actually sent
	lateMS    []float64 // open loop: how late an idle caller woke for a due request
	attempted int       // requests sent
	done      int       // requests answered without error
	failed    int       // requests that errored or whose reply failed its check
	errs      []string  // first few failure messages
	elapsed   time.Duration
}

// merge folds a caller's private result into r.
func (r *phaseResult) merge(o *phaseResult) {
	r.latMS = append(r.latMS, o.latMS...)
	r.sendMS = append(r.sendMS, o.sendMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.attempted += o.attempted
	r.done += o.done
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// sideTask is work caller w runs between its requests when due, such as a
// topology event; it returns false when nothing was due.
type sideTask func(ctx context.Context, w int) bool

// openLoop issues requests on a fixed schedule — request i is due at
// start + i/rate — for dur, served by callers goroutines. A request that
// waits for a busy caller is timed from when it was due, so a stall also
// charges the wait it imposes on the requests queued behind it.
func openLoop(ctx context.Context, rate float64, dur time.Duration, callers int, first int, do request, side sideTask) *phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	return runCallers(callers, func(w int, res *phaseResult) {
		for ctx.Err() == nil {
			if side != nil && side(ctx, w) {
				continue
			}
			i := next.Add(1) - 1
			due := start.Add(time.Duration(i) * interval)
			if due.After(end) {
				return
			}
			// A caller still busy when a request falls due sends it late,
			// and that wait is the system's: time from the due time. A
			// caller idle until the due time sends when its timer fires;
			// the timer's overshoot is the generator's, recorded apart.
			from := due
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				from = time.Now()
				res.lateMS = append(res.lateMS, ms(from.Sub(due)))
			}
			sent := time.Now()
			res.attempted++
			verify, err := do(ctx, w, first+int(i))
			now := time.Now()
			if err != nil {
				res.fail(err)
				continue
			}
			res.latMS = append(res.latMS, ms(now.Sub(from)))
			res.sendMS = append(res.sendMS, ms(now.Sub(sent)))
			res.done++
			if verify != nil {
				if err := verify(); err != nil {
					res.fail(err)
				}
			}
		}
	}, start)
}

// closedLoop runs callers goroutines that each send their next request as
// soon as the previous one completes, for dur.
func closedLoop(ctx context.Context, dur time.Duration, callers int, first int, do request, side sideTask) *phaseResult {
	var next atomic.Int64
	start := time.Now()
	end := start.Add(dur)
	return runCallers(callers, func(w int, res *phaseResult) {
		for ctx.Err() == nil && time.Now().Before(end) {
			if side != nil && side(ctx, w) {
				continue
			}
			i := next.Add(1) - 1
			sent := time.Now()
			res.attempted++
			verify, err := do(ctx, w, first+int(i))
			now := time.Now()
			if err != nil {
				res.fail(err)
				continue
			}
			res.latMS = append(res.latMS, ms(now.Sub(sent)))
			res.sendMS = append(res.sendMS, ms(now.Sub(sent)))
			res.done++
			if verify != nil {
				if err := verify(); err != nil {
					res.fail(err)
				}
			}
		}
	}, start)
}

// runCallers runs body on callers goroutines, each with a private result,
// waits for all of them and merges their results.
func runCallers(callers int, body func(w int, res *phaseResult), start time.Time) *phaseResult {
	results := make([]phaseResult, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, &results[w])
		}()
	}
	wg.Wait()
	total := &phaseResult{elapsed: time.Since(start)}
	for w := range results {
		total.merge(&results[w])
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns float64) float64      { return ns / 1e3 }

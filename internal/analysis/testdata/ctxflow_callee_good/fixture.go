// Package lintfixture is the known-good counterpart of
// ctxflow_callee_bad: the blocking chain takes a context all the way
// down, and a condition-less retry loop with a return escape is not
// mistaken for an unbounded scan.
//
//celialint:as repro/internal/schedule/lintfixture_ctxflow_callee_good
package lintfixture

import "context"

// BlockingSumContext drains the channel racing each receive against
// cancellation.
func BlockingSumContext(ctx context.Context, items []int) int {
	ch := make(chan int)
	go func() {
		for _, v := range items {
			ch <- v
		}
		close(ch)
	}()
	total := 0
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return total
			}
			total += v
		case <-ctx.Done():
			return total
		}
	}
}

// retry is a condition-less loop with a return escape — the CAS-loop
// shape, bounded by its own logic, not a scan.
func retry(n int) int {
	for {
		if n > 0 {
			return n
		}
		n++
	}
}

// Caller threads its ctx into the blocking callee; the escape-bearing
// loop needs none.
func Caller(ctx context.Context, items []int) int {
	if ctx.Err() != nil {
		return 0
	}
	return BlockingSumContext(ctx, items) + retry(len(items))
}

// Package lintfixture is a known-bad fixture for ctxflow's callee
// check: functions holding a live context call into context-free
// chains whose summaries say they block — one frame deep and two frames
// deep (the wrapper case a frame-local check cannot see).
//
//celialint:as repro/internal/schedule/lintfixture_ctxflow_callee
package lintfixture

import "context"

// BlockingSum drains a channel fed by a worker goroutine: its summary
// blocks (range over a channel) and it takes no context.
func BlockingSum(items []int) int {
	ch := make(chan int)
	go func() {
		for _, v := range items {
			ch <- v
		}
		close(ch)
	}()
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// wrapper adds a frame between the live ctx and the block.
func wrapper(items []int) int {
	return BlockingSum(items)
}

// Caller holds a live ctx and calls the blocking chain directly.
func Caller(ctx context.Context, items []int) int {
	if ctx.Err() != nil {
		return 0
	}
	return BlockingSum(items)
}

// Caller2 drops cancellation two frames deep.
func Caller2(ctx context.Context, items []int) int {
	if ctx.Err() != nil {
		return 0
	}
	return wrapper(items)
}

package chans

import (
	"context"
	"sync"
)

// CloseParam closes a channel it did not create: the caller may close
// it too, and a double close panics.
func CloseParam(ch chan int) {
	close(ch) // want `channel received as a parameter`
}

// Owner creates, sends, closes — the ownership shape the rule wants.
func Owner() <-chan int {
	ch := make(chan int, 1)
	ch <- 1
	close(ch)
	return ch
}

// SendAfterClose sends on a channel already closed on the same path.
func SendAfterClose() <-chan int {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want `after close`
	return ch
}

// CloseInDeadBranch closes and returns; the fall-through send never
// runs after the close, so it is clean.
func CloseInDeadBranch(done bool) {
	ch := make(chan int, 1)
	if done {
		close(ch)
		return
	}
	ch <- 1
}

// SpinForever launches a goroutine whose loop has no exit: no return,
// no break, no ctx.Done() case — it can never be stopped, although the
// WaitGroup tracks it.
func SpinForever(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() { // want `no cancellation path`
		defer wg.Done()
		for {
			work()
		}
	}()
}

// SpinWithDone exits through ctx.Done — the canonical cancellable loop.
func SpinWithDone(ctx context.Context, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			work()
		}
	}()
}

// SpinWithBreak exits via an unlabeled break binding to the loop.
func SpinWithBreak(stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, open := <-stop; !open {
				break
			}
			work()
		}
	}()
}

// RangeDrain consumes until the owner closes the channel; range exits
// on close, so no cancellation path is demanded.
func RangeDrain(ch <-chan int, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range ch {
			_ = v
		}
	}()
}

func work() {}

// CloseParamDocumented keeps a non-owner close on purpose; the
// directive documents it and exercises suppression.
func CloseParamDocumented(ch chan int) {
	//lint:ignore chan-discipline fixture documents a non-owner close to exercise suppression
	close(ch)
}

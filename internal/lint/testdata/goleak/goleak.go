// Firing and non-firing cases for the goleak analyzer.
package goleak

import (
	"iter"
	"sync"
)

// fires: raw goroutines and bare channel plumbing.
func fires() {
	ch := make(chan int)    // want `make\(chan\)`
	go func() { ch <- 1 }() // want `go statement` `channel send`
	<-ch                    // want `channel receive`
	close(ch)               // want `close of channel`
}

// firesSelect: the runtime picks among ready cases pseudo-randomly.
func firesSelect(a, b chan int) {
	select { // want `select`
	case <-a: // want `channel receive`
	case <-b: // want `channel receive`
	}
}

// firesRangeChan: draining a channel is still channel plumbing.
func firesRangeChan(ch chan int) {
	for range ch { // want `range over channel`
	}
}

// firesSync: host synchronisation primitives.
func firesSync() {
	var mu sync.Mutex // want `sync.Mutex`
	mu.Lock()
	defer mu.Unlock()
	var wg sync.WaitGroup // want `sync.WaitGroup`
	wg.Wait()
	var once sync.Once // want `sync.Once`
	once.Do(func() {})
}

// firesPull: iter.Pull and iter.Pull2 start a coroutine goroutine that
// no go statement shows, instantiated explicitly or not.
func firesPull(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq) // want `iter.Pull`
	defer stop()
	next()
	next2, stop2 := iter.Pull2[int, int](seq2) // want `iter.Pull2`
	defer stop2()
	next2()
}

// okEngineStyle: plain sequential code — what the deterministic core
// is supposed to look like — produces nothing.
func okEngineStyle(events []func()) {
	for _, ev := range events {
		ev()
	}
}

// okAllowed: the engine's own coroutine handoff carries a reasoned
// allow like this one.
func okAllowed(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	//lint:allow goleak(test fixture mirroring the engine's proc coroutine)
	next, _ := iter.Pull(seq)
	return next
}

// okAllowedChan: an allow works the same for channel plumbing.
func okAllowedChan() chan struct{} {
	//lint:allow goleak(test fixture for a reasoned channel allow)
	return make(chan struct{})
}

package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"xlupc/internal/flight"
)

// Sweep is the settings every figure of one command run shares. Its
// methods are the figure drivers and printers: each fans its simulation
// points out over Workers goroutines. Every point is an independent
// Runtime — its own kernel, fabric and RNGs, nothing shared — so results
// are bit-identical to a sequential sweep whatever Workers is; only the
// wall clock changes. Two sweeps with different settings may run side by
// side in one process.
//
// Every stressmark point of Fig8, Fig9, Fig9CI and PinUsage is a view
// over the sweep's run table (runTable): a run is keyed by its whole
// configuration and simulated once, and a cache capacity that a larger
// run never filled reads that run back. WithRunTable gives a sweep one
// table for all its figures, which is how a command that prints several
// shares a run between them (Fig. 9's cached GM runs are Fig. 8's
// 100-entry runs, §4.5's pin usage is Fig. 9's); a Sweep literal has a
// fresh table per figure. The table changes which runs are simulated,
// never a result.
type Sweep struct {
	// Seed is the simulation seed every point of every figure runs at.
	Seed int64
	// Workers is the number of goroutines a sweep's points run on; a
	// value <= 0 means GOMAXPROCS, 1 a sequential sweep.
	Workers int
	// Flight, when non-nil, gives the chaos and crash runs flight rings,
	// and a failing or diverging run dumps its tail to Flight.Dump.
	Flight *flight.Config

	tab *runTable // the run table WithRunTable made, or nil
}

// parfor runs fn(0..n-1), fanning out across the sweep's workers. fn
// must write its result into state owned by its index, which fixes the
// output order regardless of scheduling. A panic in any index is
// re-raised on the caller — the lowest panicking index wins, matching
// what a sequential loop would have surfaced first.
func (s Sweep) parfor(n int, fn func(i int)) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panics   = make([]any, n)
		panicked atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for _, r := range panics {
			if r != nil {
				panic(r)
			}
		}
	}
}

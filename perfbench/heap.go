package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// readUint reads one uint64 runtime metric.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

// liveHeapBytes is the heap the most recent GC cycle marked live.
func liveHeapBytes() uint64 { return readUint("/gc/heap/live:bytes") }

// heapWatch records the live heap of every GC cycle: a finalizer on a
// sentinel object runs once after every cycle, samples the live heap that
// cycle marked, and re-arms itself until stopped. This is the figure
// GODEBUG=gctrace=1 prints as the cycle's marked heap, without its output.
type heapWatch struct {
	stopped atomic.Bool
	mu      sync.Mutex
	samples []float64 // live heap after each GC cycle, bytes
}

// gcSentinel holds a pointer so it is never tiny-allocated (tiny objects
// share blocks, and their finalizers may never run).
type gcSentinel struct {
	w *heapWatch
	_ [16]byte
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) {
		w.sample()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	live := float64(liveHeapBytes())
	w.mu.Lock()
	w.samples = append(w.samples, live)
	w.mu.Unlock()
}

// stop ends the watch and returns the live heap of every GC cycle seen,
// ending with the cycle that completed last.
func (w *heapWatch) stop() []float64 {
	w.stopped.Store(true)
	w.sample()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples
}

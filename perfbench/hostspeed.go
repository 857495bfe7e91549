package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host time on the shared virtual machines this benchmark runs on moves
// by a quarter or more from one minute to the next: how fast each
// virtual CPU runs, and how much of it the process gets, change with the
// load of its neighbours, and the guest exposes no cycle counters. Every
// timing of one run moves together, so the harness also times a fixed
// reference kernel during set-up and between operations, and reports its
// time metrics at the kernel's reference speed:
//
//	reported = measured × refKernelMs / (the run's median kernel time)
//
// The kernel runs one copy on each CPU the Go runtime uses, all at once,
// and waits for the slowest: the workloads keep several CPUs busy (two
// simulated modes, sweep workers, or client and server handing requests
// back and forth) and wait on all of them, so they slow down when any CPU
// does. Wall-clock metrics scale by the kernel's wall time; cpu_ms_per_op
// scales by the CPU time one copy took, which, like the workload's CPU
// time, does not count time spent waiting for a CPU. The kernel uses only
// the standard library, its timed part allocates nothing, and its
// buffers live outside the Go heap, so no change to overlapsim can change
// its cost and the kernel does not change how often the collector runs.
// No collector work runs during a sample (see sample). The measured
// figures and both factors are printed above the result line.

// refKernelMs is the kernel's median time, per copy, on the seed
// commit's host in a quiet period; it only fixes the scale of the
// reported numbers.
const refKernelMs = 4.5

// refEvery is the interval between kernel samples in a measured phase
// (about 2% of the time).
const refEvery = 250 * time.Millisecond

// hostRef is the reference kernel, one copy per CPU, and the samples it
// took.
type hostRef struct {
	copies []*refKernel
	wall   []float64 // ms until the last copy finished
	cpu    []float64 // process CPU ms per copy
}

// refKernel is one copy's data: hashing, sorting and a dependent walk
// through memory, the three kinds of work the simulator and its service
// do.
type refKernel struct {
	buf    []byte    // hashed
	floats []float64 // sorted
	next   []int32   // a single-cycle permutation, chased
	end    int32     // where the walk ended, kept so it is not elided
}

func newHostRef() (*hostRef, error) {
	h := &hostRef{}
	for range runtime.GOMAXPROCS(0) {
		k, err := newRefKernel()
		if err != nil {
			return nil, err
		}
		h.copies = append(h.copies, k)
	}
	return h, nil
}

func newRefKernel() (*refKernel, error) {
	const chase = 1 << 16 // 256 KB of int32, held in the core's own caches
	buf, err1 := offHeap[byte](256 << 10)
	floats, err2 := offHeap[float64](16384)
	next, err3 := offHeap[int32](chase)
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	k := &refKernel{buf: buf, floats: floats, next: next}
	for i := range k.buf {
		k.buf[i] = byte(i)
	}
	// Sattolo's shuffle makes one cycle through every slot.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.next {
		k.next[i] = int32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k, nil
}

// offHeap returns n zero values of T in anonymous memory mapped outside
// the Go heap: the collector neither scans nor counts it. It is never
// unmapped; the kernel lives as long as the process.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}

func (k *refKernel) run() {
	sum := sha256.Sum256(k.buf)
	x := uint64(sum[0]) | 1
	for i := range k.floats {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.floats[i] = float64(x >> 11)
	}
	slices.Sort(k.floats)
	p := int32(sum[1])
	for i := 0; i < 300_000; i++ {
		p = k.next[p]
	}
	k.end = p
}

// sample runs every copy of the kernel at once, records the time until
// the last one finishes and the CPU time per copy, and returns the wall
// and CPU time the kernel took so the caller can leave them out of its
// own measurement.
//
// The collector is off while the kernel runs. Turning it off first waits
// for a mark phase that the last operation started to finish, so mark
// workers neither compete with the copies nor add their CPU time to the
// kernel's: the factors do not depend on how much the benchmarked code
// allocates. The wait is not part of the returned time, so the mark
// work stays in the phase's elapsed and CPU time, where it belongs.
func (h *hostRef) sample() (wall, cpu time.Duration) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	c0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(h.copies))
	for _, k := range h.copies {
		go func() {
			defer wg.Done()
			k.run()
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	cpu = cpuTime() - c0
	h.wall = append(h.wall, ms(wall))
	h.cpu = append(h.cpu, ms(cpu)/float64(len(h.copies)))
	return wall, cpu
}

// wallSpeed and cpuSpeed are the factors that take this run's wall-clock
// and CPU times to reference speed.
func (h *hostRef) wallSpeed() float64 { return refKernelMs / percentile(h.wall, 50) }
func (h *hostRef) cpuSpeed() float64  { return refKernelMs / percentile(h.cpu, 50) }

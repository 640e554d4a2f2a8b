package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The CPU speed the host gives the benchmark changes while it runs: the
// machine is shared, and on the 2-core development VM an in-process cold
// fit took 1.0–1.2 s of CPU time for stretches of twenty minutes to an
// hour, and about half that in between. CPU time leaves out waiting for a
// CPU and time the hypervisor steals, but not a slower CPU. So the gated cost of an operation is its
// CPU time over the CPU time of a fixed reference kernel, sampled through
// the phase.

// refKernel is that reference, a miniature of one EM propagation step: for
// every row of a K=4 membership matrix, sum the rows of a fixed set of
// random neighbours, then normalise the sum. Those are the scattered loads
// and floating point that EM over a network's links does. It is the
// benchmark's own code, so no change to genclus can make it faster or
// slower.
type refKernel struct {
	theta, next []float64 // refRows × 4, each row sums to 1
	nbrs        []int32   // refDegree neighbours per row
}

const (
	refRows   = 1 << 14 // two 512 KiB matrices
	refDegree = 4
	refRounds = 8 // propagation steps per run: about 1.5 ms of CPU
	refPeriod = 50 * time.Millisecond
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{
		theta: make([]float64, 4*refRows),
		next:  make([]float64, 4*refRows),
		nbrs:  make([]int32, refDegree*refRows),
	}
	for i := range k.theta {
		k.theta[i] = 0.25
	}
	for i := range k.nbrs {
		k.nbrs[i] = int32(rng.Intn(refRows))
	}
	return k
}

// run does one sample's fixed work. Rows stay normalised, so no input
// makes the floating point slower.
func (k *refKernel) run() {
	for r := 0; r < refRounds; r++ {
		for v := 0; v < refRows; v++ {
			var a0, a1, a2, a3 float64
			for _, u := range k.nbrs[refDegree*v : refDegree*(v+1)] {
				row := k.theta[4*u : 4*u+4]
				a0 += row[0]
				a1 += row[1] * 1.001
				a2 += row[2] * 0.999
				a3 += row[3]
			}
			inv := 1 / (a0 + a1 + a2 + a3)
			out := k.next[4*v : 4*v+4]
			out[0], out[1], out[2], out[3] = a0*inv, a1*inv, a2*inv, a3*inv
		}
		k.theta, k.next = k.next, k.theta
	}
}

// sampleRefKernel runs the kernel every refPeriod, on a thread of its own,
// until stop is closed, and then sends the thread CPU time of each run in
// ms. It runs beside the measured phase, so it meets the host's speed of
// that phase; the host's speed can change within seconds. It takes about
// 3% of one CPU.
func sampleRefKernel(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		k.run() // fault the arrays in
		var ms []float64
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			k.run()
			ms = append(ms, float64(threadCPU()-c0)/1e6)
			select {
			case <-stop:
				out <- ms
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// threadCPU is the calling thread's CPU time so far, from
// CLOCK_THREAD_CPUTIME_ID. getrusage would not do: it reports the running
// thread's time only as of the last scheduler tick, 4 ms apart.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

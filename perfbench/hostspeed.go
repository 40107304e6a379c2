package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on does not keep one speed. On a
// shared virtual machine the same work runs up to about 1.8 times
// slower for seconds to minutes at a time (the other hyperthread of the
// core, the caches and the memory system are shared with other
// tenants), and process CPU time moves with wall time, so it is no
// steadier. Every host-time figure is therefore scaled to a reference
// speed: a fixed reference kernel, which uses no repository code, runs
// in short slices interleaved with the measured work, and each figure
// is multiplied by refNominal over the median time of the slices taken
// next to it. A change that makes the program faster lowers the scaled
// figure; a slower host leaves it about where it was. How much a slow
// episode slows the kernel depends on how much of it runs from the
// caches: a kernel that stays in a 256 KiB table slowed less than the
// program did, one that roams 4 MiB slowed more, and one that does
// both, as refKernel does, tracked the program closest (BASELINE.md
// has the figures).

// refNominal is the reference kernel's time at the reference speed. It
// only sets the scale of the figures: a round number near the slice
// times on the 2-vCPU machine the benchmark was sized on, which were
// 1.0-1.9 ms depending on the host's episode and the work around them.
const refNominal = 1000 * time.Microsecond

// refEvery is how much wall time passes between two slices of the
// reference kernel; a slice takes 1-2 ms, so the kernel costs about a
// tenth of a run.
const refEvery = 10 * time.Millisecond

const (
	refHeapLen = 4096    // entries of the kernel's binary min-heap
	refNearLen = 1 << 15 // uint64 slots (256 KiB) of the cache-resident table
	refFarLen  = 1 << 19 // uint64 slots (4 MiB) of the table that is not
	refSteps   = 10000   // heap steps per slice
)

// refKernel does what the simulator spends its time on: a binary heap
// of timestamps (the event queue), data-dependent branches, random
// reads and writes across a table that fits the L2 cache, and on half
// the steps a write to a table that does not. It allocates nothing, so
// the garbage collector does not enter its time.
type refKernel struct {
	heap [refHeapLen]uint64
	near [refNearLen]uint64
	far  [refFarLen]uint64
	x    uint64
}

// kernel is the process's one reference kernel, built on first use.
var kernel *refKernel

// newRefKernel maps the kernel outside the Go heap, so that it neither
// shows in the heap figures nor raises the garbage collector's goal.
func newRefKernel() *refKernel {
	b, err := syscall.Mmap(-1, 0, int(unsafe.Sizeof(refKernel{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: map reference kernel: " + err.Error())
	}
	k := (*refKernel)(unsafe.Pointer(&b[0]))
	k.x = 0x9e3779b97f4a7c15
	// Start the heap in its steady state, where each key lies above the
	// minimum by the residual of a uniform 20-bit increment. (From keys
	// spaced wider, slices grew a third slower over the first 4 million
	// steps as the heap settled.) A sorted array is a heap.
	for i := range k.heap {
		u := (float64(i) + 0.5) / refHeapLen
		k.heap[i] = uint64((1 - math.Sqrt(1-u)) * (1 << 20))
	}
	for i := range k.far {
		k.far[i] = uint64(i) // fault every page in now
	}
	return k
}

// step replaces the heap's minimum by a later time, sifts it down, and
// updates one random slot of the near table and, on half the steps,
// one of the far table.
func (k *refKernel) step() {
	k.x = k.x*6364136223846793005 + 1442695040888963407
	v := k.heap[0] + k.x>>44
	i := 0
	for {
		c := 2*i + 1
		if c >= refHeapLen {
			break
		}
		if c+1 < refHeapLen && k.heap[c+1] < k.heap[c] {
			c++
		}
		if k.heap[c] >= v {
			break
		}
		k.heap[i] = k.heap[c]
		i = c
	}
	k.heap[i] = v
	j := (k.x >> 17) % refNearLen
	k.near[j] += v ^ k.near[(j*7+1)%refNearLen]
	if k.x&(1<<40) != 0 {
		j = (k.x >> 30) % refFarLen
		k.far[j] += v
	}
}

// hostSpeed measures host time with the reference kernel's slices
// taken out, and the speed the host ran at meanwhile:
//
//	h.begin()
//	... work, calling h.maybe() every few hundred microseconds ...
//	raw, scaled := h.end()
type hostSpeed struct {
	k     *refKernel
	start time.Time     // when measuring began
	last  time.Time     // end of the last slice
	spent time.Duration // in slices since start
	ref   []float64     // slice times since begin, ns
}

func newHostSpeed() *hostSpeed {
	if kernel == nil {
		kernel = newRefKernel()
	}
	return &hostSpeed{k: kernel}
}

// slice runs one slice of the kernel now.
func (h *hostSpeed) slice() {
	t0 := time.Now()
	for i := 0; i < refSteps; i++ {
		h.k.step()
	}
	h.last = time.Now()
	d := h.last.Sub(t0)
	h.spent += d
	h.ref = append(h.ref, float64(d.Nanoseconds()))
}

// begin starts a measurement with a slice before it.
func (h *hostSpeed) begin() {
	h.ref = h.ref[:0]
	h.slice()
	h.start, h.spent = time.Now(), 0
}

// maybe runs a slice when refEvery has passed since the last one.
func (h *hostSpeed) maybe() {
	if time.Since(h.last) >= refEvery {
		h.slice()
	}
}

// elapsed is the unscaled host time since begin, slices taken out.
func (h *hostSpeed) elapsed() time.Duration { return time.Since(h.start) - h.spent }

// scale is the factor that brings host times measured since begin to
// the reference speed. It takes the median slice, so that a slice the
// host preempted (a few in a thousand take three to five times as long)
// does not skew a short measurement.
func (h *hostSpeed) scale() float64 { return float64(refNominal.Nanoseconds()) / median(h.ref) }

// end ends a measurement with a slice after it. It returns the host
// time since begin with the slices taken out, and the factor that
// brings it to the reference speed.
func (h *hostSpeed) end() (raw time.Duration, scale float64) {
	raw = h.elapsed()
	h.slice()
	return raw, h.scale()
}

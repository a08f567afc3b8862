package main

import "time"

// canarySink keeps the compiler from discarding the canary's work.
var canarySink float32

// canary is the machine-speed reference: a fixed pure-Go kernel that uses no
// repository code (a 256³ naive float32 matmul plus 64 MB of copying, done as
// four passes over a 16 MB buffer so the canary adds 32 MB, not 128 MB, to
// peak_rss_mb), timed at the start and the end of every run. It tells box
// drift from a code change: if calib.ref_ms moved with the metric, the box
// moved. It is never used to rescale a metric.
type canary struct {
	a, b, c  []float32
	src, dst []byte
}

const (
	canaryN      = 256
	canaryCopy   = 16 << 20
	canaryPasses = 4
)

func newCanary() *canary {
	k := &canary{
		a:   make([]float32, canaryN*canaryN),
		b:   make([]float32, canaryN*canaryN),
		c:   make([]float32, canaryN*canaryN),
		src: make([]byte, canaryCopy),
		dst: make([]byte, canaryCopy),
	}
	for i := range k.a {
		k.a[i] = float32(i%7) * 0.25
		k.b[i] = float32(i%5) * 0.5
	}
	for i := range k.src {
		k.src[i] = byte(i)
	}
	return k
}

// once runs the kernel one time and returns its duration in ms.
func (k *canary) once() float64 {
	const n = canaryN
	start := time.Now()
	for i := 0; i < n; i++ {
		row := k.c[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
		for p := 0; p < n; p++ {
			av := k.a[i*n+p]
			bp := k.b[p*n : (p+1)*n]
			for j := range row {
				row[j] += av * bp[j]
			}
		}
	}
	for p := 0; p < canaryPasses; p++ {
		copy(k.dst, k.src)
	}
	d := time.Since(start)
	canarySink += k.c[n+1] + float32(k.dst[len(k.dst)-1])
	return float64(d.Nanoseconds()) / 1e6
}

// measure returns the fastest of three runs (the first also faults the
// buffers in).
func (k *canary) measure() float64 {
	return minOfK([]float64{k.once(), k.once(), k.once()})
}

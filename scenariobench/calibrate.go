package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by a
// quarter over minutes as neighbours come and go: every pass of a run
// slows together. So each pass is preceded by a calibration — a fixed
// amount of standard-library work (map inserts, a sort, hashing) whose
// time depends on the host's current speed and never on this
// repository's code — and host times are reported scaled to a host on
// which the calibration takes calibrationRef.

// calibrationRef is the calibration time the reported host times are
// scaled to: its typical value on the 2-vCPU VM the benchmark was
// defined on, so scaled times stay close to raw ones there.
const calibrationRef = 0.0125

// calibrationSink keeps the calibration's results live.
var calibrationSink uint64

// calibrate returns the fastest of three runs of the calibration work,
// in host seconds.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		calibrationWork()
		if d := time.Since(start).Seconds(); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

func calibrationWork() {
	const n = 1 << 16
	m := make(map[uint64]uint64, n)
	keys := make([]uint64, 0, n)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x] = uint64(i)
		keys = append(keys, x)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	buf := make([]byte, 1<<18)
	for i, k := range keys {
		buf[i%len(buf)] ^= byte(m[k])
	}
	sum := sha256.Sum256(buf)
	calibrationSink += uint64(sum[0]) + keys[n/2]
}

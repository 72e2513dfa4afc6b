// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated activities ("procs") are coroutines driven one at a time by the
// engine, so every run is fully deterministic: exactly one proc executes at
// any moment, and all ordering is derived from the virtual clock plus a
// monotonically increasing sequence number used as a tie-breaker.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the usual constants (Microsecond etc.) can be used via
// the conversion helpers below.
type Duration = time.Duration

// Common durations re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Forever is a time horizon beyond any practical simulation.
const Forever = Time(1<<63 - 1)

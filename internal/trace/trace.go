// Package trace records scheduling events from a simulation and exports
// them as Chrome trace-event JSON (load chrome://tracing or Perfetto), the
// tool a scheduler developer reaches for when a policy misbehaves. Events
// carry the virtual timestamp, the core, and the thread, so a SCHED_COOP
// decision trace can be compared side by side with the kernel baseline.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	KindRunStart Kind = iota // thread became current on a core
	KindRunEnd               // thread left a core
	KindWake                 // thread became runnable
	KindBlock                // thread blocked
	KindCustom               // user annotation
)

func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindRunEnd:
		return "run-end"
	case KindWake:
		return "wake"
	case KindBlock:
		return "block"
	}
	return "custom"
}

// Event is one trace record.
type Event struct {
	At     sim.Time
	Kind   Kind
	Core   int
	Thread string
	TID    int
	Label  string
	// Class is the scheduling class the thread ran under ("fair",
	// "rr", ...), so traces from different kernel schedulers can be
	// told apart side by side.
	Class string
}

// Buffer is a bounded event recorder. When full, the oldest events are
// dropped (a flight-recorder ring).
type Buffer struct {
	cap    int
	events []Event
	start  int
	// Dropped counts events discarded due to capacity.
	Dropped int64
}

// NewBuffer returns a recorder holding up to capacity events (0 means an
// unbounded buffer).
func NewBuffer(capacity int) *Buffer {
	return &Buffer{cap: capacity}
}

// Add records an event.
func (b *Buffer) Add(e Event) {
	if b.cap > 0 && len(b.events) == b.cap {
		b.events[b.start] = e
		b.start = (b.start + 1) % b.cap
		b.Dropped++
		return
	}
	b.events = append(b.events, e)
}

// Len reports the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	out := make([]Event, 0, len(b.events))
	for i := 0; i < len(b.events); i++ {
		out = append(out, b.events[(b.start+i)%max(len(b.events), 1)])
	}
	return out
}

// chromeEvent is the Chrome trace-event JSON schema (subset).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	PID   int            `json:"pid"` // we use: core
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the buffer as a Chrome trace-event array.
// run-start/run-end pairs become duration slices on per-core tracks;
// wake/block become instant events.
func (b *Buffer) WriteChromeTrace(w io.Writer) error {
	var out []chromeEvent
	for _, e := range b.Events() {
		ce := chromeEvent{
			Name: e.Thread,
			TS:   float64(e.At) / 1000.0,
			PID:  e.Core,
			TID:  e.TID,
		}
		switch e.Kind {
		case KindRunStart:
			ce.Phase = "B"
			if e.Class != "" {
				ce.Args = map[string]any{"class": e.Class}
			}
		case KindRunEnd:
			ce.Phase = "E"
		default:
			ce.Phase = "i"
			ce.Name = fmt.Sprintf("%s:%s", e.Kind, e.Thread)
			if e.Label != "" || e.Class != "" {
				ce.Args = map[string]any{}
				if e.Label != "" {
					ce.Args["label"] = e.Label
				}
				if e.Class != "" {
					ce.Args["class"] = e.Class
				}
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

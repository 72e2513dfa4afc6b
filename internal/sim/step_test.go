package sim

import (
	"fmt"
	"strings"
	"testing"
)

// poller is a resume-step workload: each poll records itself and, until
// it has polled limit times, arms the next wake-up (a "burst" of i ns)
// and keeps the proc parked.
type poller struct {
	p       *Proc
	polls   int
	limit   int
	log     *[]string
	current []*Proc // Current() seen by each poll
}

func (s *poller) poll() bool {
	e := s.p.eng
	s.polls++
	s.current = append(s.current, e.Current())
	*s.log = append(*s.log, fmt.Sprintf("%d poll %d", e.Now(), s.polls))
	if s.polls >= s.limit {
		return false
	}
	e.AfterFunc(Duration(s.polls), readyProc, s.p)
	return true
}

func pollStep(arg any) bool { return arg.(*poller).poll() }

// TestParkStepStaysParkedUntilFalse: a step returning true keeps the
// proc parked without entering the body; the first false enters the
// body in the same event and disarms the step, and the step sees the
// proc as Current.
func TestParkStepStaysParkedUntilFalse(t *testing.T) {
	e := NewEngine(1)
	var log []string
	s := &poller{limit: 5, log: &log}
	wakeups := 0
	var stepDone, bodyAt Time
	var stepEvents, bodyEvents uint64
	s.p = e.Spawn("spinner", func(p *Proc) {
		p.Sleep(1)
		e.AfterFunc(1, readyProc, p)
		p.ParkStep(func(arg any) bool {
			stay := pollStep(arg)
			if !stay {
				stepDone, stepEvents = e.Now(), e.Processed()
			}
			return stay
		}, s)
		wakeups++
		bodyAt, bodyEvents = e.Now(), e.Processed()
		// A plain park afterwards must not run the disarmed step.
		p.Sleep(100)
		wakeups++
	})
	e.Ready(s.p)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.polls != 5 || wakeups != 2 {
		t.Fatalf("polls %d wakeups %d, want 5 and 2", s.polls, wakeups)
	}
	if bodyAt != stepDone || bodyEvents != stepEvents {
		t.Fatalf("body resumed at %v after %d events, step finished at %v after %d",
			bodyAt, bodyEvents, stepDone, stepEvents)
	}
	for i, c := range s.current {
		if c != s.p {
			t.Fatalf("poll %d saw Current() = %v, want %v", i+1, c, s.p)
		}
	}
	if e.Current() != nil || s.p.State() != ProcExited {
		t.Fatalf("current %v state %v after run", e.Current(), s.p.State())
	}
}

// TestParkStepMatchesBodyLoop: the same poll sequence run as a resume
// step and as a plain park/resume loop in the body fires the same
// events in the same order, beside an unrelated proc and timer chain.
func TestParkStepMatchesBodyLoop(t *testing.T) {
	run := func(useStep bool) ([]string, uint64, Time) {
		e := NewEngine(1)
		var log []string
		s := &poller{limit: 40, log: &log}
		s.p = e.Spawn("spinner", func(p *Proc) {
			p.Sleep(3)
			e.AfterFunc(1, readyProc, p)
			if useStep {
				p.ParkStep(pollStep, s)
			} else {
				for {
					p.Park()
					if !s.poll() {
						break
					}
				}
			}
			log = append(log, fmt.Sprintf("%d spinner done", e.Now()))
		})
		other := e.Spawn("other", func(p *Proc) {
			for i := 0; i < 30; i++ {
				p.Sleep(Duration(7 + i%3))
				log = append(log, fmt.Sprintf("%d other %d", e.Now(), i))
			}
		})
		var tick func()
		n := 0
		tick = func() {
			log = append(log, fmt.Sprintf("%d tick %d", e.Now(), n))
			if n++; n < 50 {
				e.After(5, tick)
			}
		}
		e.After(0, tick)
		e.Ready(s.p)
		e.Ready(other)
		end, err := e.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		return log, e.Processed(), end
	}
	bodyLog, bodyN, bodyEnd := run(false)
	stepLog, stepN, stepEnd := run(true)
	if bodyN != stepN || bodyEnd != stepEnd {
		t.Fatalf("body loop: %d events, end %v; step: %d events, end %v", bodyN, bodyEnd, stepN, stepEnd)
	}
	if strings.Join(bodyLog, "\n") != strings.Join(stepLog, "\n") {
		t.Fatalf("event order differs:\nbody:\n%s\nstep:\n%s", strings.Join(bodyLog, "\n"), strings.Join(stepLog, "\n"))
	}
}

// TestKillSkipsArmedStep: Kill and KillAll unwind a proc parked with an
// armed step through its deferred functions without running the step.
func TestKillSkipsArmedStep(t *testing.T) {
	for _, all := range []bool{false, true} {
		e := NewEngine(1)
		steps, cleaned := 0, false
		p := e.Spawn("spinner", func(p *Proc) {
			defer func() { cleaned = true }()
			e.AfterFunc(10, readyProc, p)
			p.ParkStep(func(any) bool {
				steps++
				e.AfterFunc(10, readyProc, p)
				return true
			}, nil)
			t.Error("killed proc continued past ParkStep")
		})
		e.Ready(p)
		if all {
			if _, hit, err := e.RunHorizon(35); err != nil || !hit {
				t.Fatalf("hit %v err %v", hit, err)
			}
			e.KillAll()
		} else {
			e.At(35, func() { e.Kill(p) })
			if _, err := e.Run(35); err != nil {
				t.Fatal(err)
			}
		}
		if steps != 3 || !cleaned || p.State() != ProcExited || e.Live() != 0 {
			t.Fatalf("KillAll=%v: steps %d cleaned %v state %v live %d, want 3 true exited 0",
				all, steps, cleaned, p.State(), e.Live())
		}
	}
}

// runPanicking runs e and returns what RunAll panicked with.
func runPanicking(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.RunAll()
	return nil
}

// TestParkInsideStepPanics: a step must never park; Park inside one
// surfaces from Run with a message naming the rule.
func TestParkInsideStepPanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("bad", func(p *Proc) {
		e.AfterFunc(1, readyProc, p)
		p.ParkStep(func(arg any) bool {
			arg.(*Proc).Park()
			return true
		}, p)
	})
	e.Ready(p)
	err, ok := runPanicking(e).(error)
	if !ok {
		t.Fatal("Park inside a step did not panic out of Run")
	}
	if want := "sim: Park called inside the resume step of proc 1 (bad)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("panic = %q, want it to contain %q", err, want)
	}
}

// TestStepPanicSurfacesLikeBodyPanic: a panic inside a step leaves Run
// with the same report as a body panic, and the proc exits with its
// deferred functions run.
func TestStepPanicSurfacesLikeBodyPanic(t *testing.T) {
	e := NewEngine(1)
	cleaned := false
	p := e.Spawn("bomb", func(p *Proc) {
		defer func() { cleaned = true }()
		e.AfterFunc(5, readyProc, p)
		p.ParkStep(func(any) bool { panic("boom") }, nil)
		t.Error("body continued after its step panicked")
	})
	e.Ready(p)
	err, ok := runPanicking(e).(error)
	if !ok {
		t.Fatal("step panic did not surface from RunAll as an error")
	}
	if want := "sim: panic in proc 1 (bomb): boom\n"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("panic = %q, want prefix %q", err, want)
	}
	if !strings.Contains(err.Error(), "TestStepPanicSurfacesLikeBodyPanic.func") {
		t.Fatalf("panic report lacks the step's stack:\n%v", err)
	}
	if e.Current() != nil || p.State() != ProcExited || e.Live() != 0 || !cleaned {
		t.Fatalf("current %v state %v live %d cleaned %v after step panic",
			e.Current(), p.State(), e.Live(), cleaned)
	}
}

package sim

import (
	"fmt"
	"testing"
)

// mustPanic runs f and returns the value it panicked with, failing the test
// if it returned normally.
func mustPanic(t *testing.T, f func()) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	f()
	t.Fatal("did not panic")
	return nil
}

// A panic inside a proc unwinds out of the coroutine resume and out of the
// drive that resumed it, with its original value.
func TestProcPanicSurfacesFromDrives(t *testing.T) {
	build := func() *Scheduler {
		s := New()
		s.Spawn("bystander", func(p *Proc) { p.Sleep(10) })
		s.Spawn("faulty", func(p *Proc) {
			p.Sleep(5)
			panic("boom")
		})
		return s
	}
	for name, drive := range map[string]func(*Scheduler){
		"Run":      func(s *Scheduler) { s.Run() },
		"RunUntil": func(s *Scheduler) { s.RunUntil(7) },
		"RunPaced": func(s *Scheduler) { s.RunPaced(1e12) },
	} {
		s := build()
		if r := mustPanic(t, func() { drive(s) }); r != "boom" {
			t.Errorf("%s: panic value %v, want boom", name, r)
		}
		if s.Now() != 5 {
			t.Errorf("%s: clock at %v after the panic, want 5", name, s.Now())
		}
	}
}

// On a stealing multi-worker pool, panics in the same window are captured
// by each shard's window run and re-raised on the coordinator, lowest shard
// first, whichever worker resumed the proc.
func TestProcPanicSurfacesFromStealingShardGroup(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		g := NewShardGroup(4, 100)
		g.SetWorkers(2)
		g.SetStealing(true)
		for i := 0; i < 4; i++ {
			i := i
			g.Shard(i).Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(10)
				if i%2 == 1 {
					panic(fmt.Sprintf("shard %d", i))
				}
			})
		}
		if r := mustPanic(t, func() { g.Run() }); r != "shard 1" {
			t.Fatalf("trial %d: panic value %v, want shard 1", trial, r)
		}
	}
}

// Deadlock diagnostics name exactly the procs still parked: procs that
// finished earlier are gone from the list, and the text keeps its format.
func TestDeadlockErrorAfterFinishedProcs(t *testing.T) {
	s := New()
	var never Completion
	s.Spawn("done-early", func(p *Proc) { p.Sleep(1) })
	s.Spawn("stuck-a", func(p *Proc) { p.Sleep(2); never.Wait(p) })
	s.Spawn("done-late", func(p *Proc) { p.Sleep(3) })
	s.Spawn("stuck-b", func(p *Proc) { p.Sleep(4); never.Wait(p) })
	err := s.Run()
	want := "sim: deadlock at t=4ns with 2 blocked procs: " +
		"stuck-a(#2): completion wait; stuck-b(#4): completion wait"
	if err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// A finished proc drops its coroutine, so a Proc kept reachable by the
// model does not pin the coroutine's state.
func TestFinishedProcDropsCoroutine(t *testing.T) {
	s := New()
	p := s.Spawn("short", func(p *Proc) { p.Sleep(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if p.next != nil || p.yield != nil {
		t.Fatal("finished proc still references its coroutine")
	}
}

// RunPaced, which has no self-wake fast path, must produce the same
// timeline as Run on procs that hand a mutex and condition back and forth.
func TestRunPacedMatchesRunOnCondMutex(t *testing.T) {
	build := func() (*Scheduler, *[]string) {
		s := New()
		var mu Mutex
		cond := NewCond(&mu)
		queue, log := 0, []string{}
		s.Spawn("producer", func(p *Proc) {
			for i := 0; i < 21; i++ {
				p.Sleep(Duration(1 + i%3))
				mu.Lock(p)
				queue++
				log = append(log, fmt.Sprintf("put@%d q=%d", p.Now(), queue))
				cond.Signal(p)
				mu.Unlock(p)
			}
		})
		for c := 0; c < 3; c++ {
			name := fmt.Sprintf("consumer%d", c)
			s.Spawn(name, func(p *Proc) {
				for n := 0; n < 7; n++ {
					mu.Lock(p)
					for queue == 0 {
						cond.Wait(p)
					}
					queue--
					log = append(log, fmt.Sprintf("%s@%d q=%d", name, p.Now(), queue))
					mu.Unlock(p)
					p.Sleep(2)
				}
			})
		}
		return s, &log
	}
	fast, fastLog := build()
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow, slowLog := build()
	if err := slow.RunPaced(1e12); err != nil {
		t.Fatal(err)
	}
	if len(*fastLog) != 42 {
		t.Fatalf("Run logged %d entries, want 42", len(*fastLog))
	}
	if fmt.Sprint(*fastLog) != fmt.Sprint(*slowLog) {
		t.Fatalf("timelines differ:\nRun:      %v\nRunPaced: %v", *fastLog, *slowLog)
	}
}

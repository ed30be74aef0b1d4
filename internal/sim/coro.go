//go:build go1.23

package sim

import "iter"

// start backs p with a pull coroutine whose first resume enters fn. The
// stop function is dropped: a finished proc's coroutine has already exited,
// and a proc still parked when its drive ends (a deadlock) keeps its
// coroutine, as a blocked goroutine would. The runtime requires a
// coroutine to be resumed under the OS-thread locking it was created with,
// so simulations must not be driven from goroutines that call
// runtime.LockOSThread.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
}

package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"histar/internal/label"
)

// ends are the two ways a thread stops: it halts itself, or another thread
// deletes it by unreferencing the container that holds it.  Each makes a
// fresh thread in a container of its own and returns its context and what
// ends it.
var ends = []struct {
	name  string
	setup func(t *testing.T, k *Kernel, boot *ThreadCall) (*ThreadCall, func() error)
}{
	{"halted", func(t *testing.T, k *Kernel, boot *ThreadCall) (*ThreadCall, func() error) {
		_, victim := doomedThread(t, k, boot)
		return victim, victim.ThreadHalt
	}},
	{"deleted", func(t *testing.T, k *Kernel, boot *ThreadCall) (*ThreadCall, func() error) {
		d, victim := doomedThread(t, k, boot)
		return victim, func() error { return boot.Unref(k.RootContainer(), d) }
	}},
}

// doomedThread creates a container in the root and a thread in it.
func doomedThread(t *testing.T, k *Kernel, boot *ThreadCall) (ID, *ThreadCall) {
	t.Helper()
	root := k.RootContainer()
	d, err := boot.ContainerCreate(root, label.New(label.L1), "doomed", 0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := boot.ThreadCreate(d, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := k.ThreadCall(tid)
	if err != nil {
		t.Fatal(err)
	}
	return d, victim
}

// alertWaiters counts the goroutines blocked on a channel inside AlertWait.
func alertWaiters() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "(*ThreadCall).AlertWait") {
			n++
		}
	}
	return n
}

// TestAlertWaitReturnsWhenItsThreadEnds: a thread waiting for an alert
// returns ErrHalted when it is halted or deleted while it waits, rather than
// waiting for good.
func TestAlertWaitReturnsWhenItsThreadEnds(t *testing.T) {
	for _, end := range ends {
		t.Run(end.name, func(t *testing.T) {
			k, boot := boot(t)
			victim, stop := end.setup(t, k, boot)
			waiters := alertWaiters()
			done := make(chan error, 1)
			go func() {
				_, err := victim.AlertWait()
				done <- err
			}()
			// What follows must happen to a waiting thread.
			for deadline := time.Now().Add(5 * time.Second); alertWaiters() <= waiters; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("AlertWait never blocked")
				}
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrHalted) {
					t.Fatalf("AlertWait = %v, want ErrHalted", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("AlertWait still blocked 2 s after its thread was %s", end.name)
			}
		})
	}
}

// TestEveryCallOfAnEndedThreadIsErrHalted calls every exported ThreadCall
// method that returns an error, with zero arguments, through the context of
// a thread that halted and of one that was deleted: each must return
// ErrHalted and count nothing.  The methods are found by reflection, so a
// new call that skips enter fails here.  Each call runs on its own goroutine
// with a deadline, so one that blocks fails the test instead of hanging it.
func TestEveryCallOfAnEndedThreadIsErrHalted(t *testing.T) {
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for _, end := range ends {
		t.Run(end.name, func(t *testing.T) {
			k, boot := boot(t)
			victim, stop := end.setup(t, k, boot)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			calls := 0
			typ := reflect.TypeOf(victim)
			for i := 0; i < typ.NumMethod(); i++ {
				name := typ.Method(i).Name
				m := reflect.ValueOf(victim).Method(i)
				mt := m.Type()
				if mt.NumOut() == 0 || mt.Out(mt.NumOut()-1) != errType {
					continue
				}
				calls++
				args := make([]reflect.Value, mt.NumIn())
				for j := range args {
					args[j] = reflect.Zero(mt.In(j))
				}
				total, issued := k.SyscallTotal(), victim.SyscallsIssued()
				res := make(chan error, 1)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							res <- fmt.Errorf("panic: %v", r)
						}
					}()
					var out []reflect.Value
					if mt.IsVariadic() {
						out = m.CallSlice(args)
					} else {
						out = m.Call(args)
					}
					err, _ := out[len(out)-1].Interface().(error)
					res <- err
				}()
				select {
				case err := <-res:
					if !errors.Is(err, ErrHalted) {
						t.Errorf("%s = %v, want ErrHalted", name, err)
					}
				case <-time.After(2 * time.Second):
					t.Errorf("%s still blocked after 2 s, want ErrHalted", name)
					continue
				}
				if k.SyscallTotal() != total || victim.SyscallsIssued() != issued {
					t.Errorf("%s was refused but counted: total %d → %d, issued %d → %d",
						name, total, k.SyscallTotal(), issued, victim.SyscallsIssued())
				}
			}
			if calls < 45 {
				t.Fatalf("called %d methods; the reflection reads too few", calls)
			}
		})
	}
}

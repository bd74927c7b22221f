package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement for the serving workloads. The generator and the
// servers would otherwise share every core, and on a small machine the
// scheduler's choices then decide the tail: pinned apart, the same code
// repeats its p99 within a few percent instead of a few tens. The
// generator takes the last core this process may use and the servers
// all others; with one core there is nothing to split.

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64 // 1024 CPUs, the kernel's default limit

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// setAffinity binds thread tid (0: the calling thread) to the set.
func setAffinity(tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return fmt.Errorf("bench: sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// placement says which cores the servers and the generator get.
type placement struct {
	servers, generator, all cpuSet
	split                   bool
	// procs is the GOMAXPROCS to restore when the generator unpins.
	procs int
}

// newPlacement splits the cores this process was started on.
func newPlacement() (*placement, error) {
	p := &placement{procs: runtime.GOMAXPROCS(0)}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(p.all), uintptr(unsafe.Pointer(&p.all)))
	if errno != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", errno)
	}
	last := -1
	for cpu := 0; cpu < len(p.all)*64; cpu++ {
		if p.all.has(cpu) {
			if last >= 0 {
				p.servers.add(last)
			}
			last = cpu
		}
	}
	p.generator.add(last)
	p.split = p.servers != cpuSet{}
	return p, nil
}

// bindSelf moves every thread of this process onto the set. Threads the
// runtime starts later inherit the mask of the thread that starts them.
func bindSelf(set *cpuSet) error {
	// Two passes: a thread born during the first inherited an old mask.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since ReadDir.
			if err := setAffinity(tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// pinGenerator puts this process on the generator's core, with one P:
// two Ps' threads taking turns on one core would delay the dispatcher
// by whole scheduler time slices.
func (p *placement) pinGenerator() error {
	if !p.split {
		return nil
	}
	p.procs = runtime.GOMAXPROCS(1)
	return bindSelf(&p.generator)
}

// unpin gives this process all its cores back: the in-process layer
// probe wants them.
func (p *placement) unpin() error {
	if !p.split {
		return nil
	}
	runtime.GOMAXPROCS(p.procs)
	return bindSelf(&p.all)
}

// onServers runs f with the calling thread bound to the servers' cores:
// a fork+exec, so that the child is born there and every thread it
// starts stays there, or a probe of those cores' speed. The process
// must be pinned to the generator's core, which the thread returns to.
func (p *placement) onServers(f func() error) error {
	if !p.split {
		return f()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.servers); err != nil {
		return err
	}
	err := f()
	if back := setAffinity(0, &p.generator); err == nil {
		err = back
	}
	return err
}

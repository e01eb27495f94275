package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// mark is the process's resource counters at one instant.
type mark struct {
	at         time.Time
	slice      int           // how many slices of the measured phase were complete
	cpu        time.Duration // user + system
	allocBytes uint64
	gcPause    time.Duration
	// busy and stolen are the machine's CPU jiffies spent running
	// something and spent runnable while the hypervisor ran another guest.
	busy, stolen float64
}

func takeMark(withHeap bool) mark {
	m := mark{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m.busy, m.stolen = cpuJiffies()
	if withHeap { // ReadMemStats stops the world: traced runs only
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.allocBytes = ms.TotalAlloc
		m.gcPause = time.Duration(ms.PauseTotalNs)
	}
	return m
}

// cpuJiffies reads the machine-wide CPU line of /proc/stat: time busy
// (user, nice, system, irq, softirq) and time stolen by the hypervisor.
func cpuJiffies() (busy, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, col := range f[1:9] {
		v, _ := strconv.ParseFloat(col, 64)
		switch i {
		case 0, 1, 2, 5, 6:
			busy += v
		case 7:
			stolen = v
		}
	}
	return busy, stolen
}

// stolenShare is the share of the CPU time the machine wanted between
// two marks that the hypervisor gave to another guest.
func stolenShare(from, to mark) float64 {
	busy, stolen := to.busy-from.busy, to.stolen-from.stolen
	return ratio(stolen, busy+stolen)
}

// threadCPU returns the CPU time the calling OS thread has consumed
// (CLOCK_THREAD_CPUTIME_ID); callers pin themselves with LockOSThread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// rssMB reads the process's current resident set from /proc.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampler polls a few gauges four times a second during the measured
// phase and keeps their maxima: resident memory always, and in a traced
// run the goroutine count and whatever extra gauges it is given.
type sampler struct {
	stop   chan struct{}
	done   sync.WaitGroup
	rssMax float64
	gorMax float64
	extra  map[string]func() float64
	max    map[string]float64
}

func startSampler(traced bool, extra map[string]func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), extra: extra, max: make(map[string]float64)}
	s.sample(traced)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample(traced)
				return
			case <-t.C:
				s.sample(traced)
			}
		}
	}()
	return s
}

func (s *sampler) sample(traced bool) {
	if v := rssMB(); v > s.rssMax {
		s.rssMax = v
	}
	if !traced {
		return
	}
	if v := float64(runtime.NumGoroutine()); v > s.gorMax {
		s.gorMax = v
	}
	for name, read := range s.extra {
		if v := read(); v > s.max[name] {
			s.max[name] = v
		}
	}
}

// finish stops the sampler after one last sample.
func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

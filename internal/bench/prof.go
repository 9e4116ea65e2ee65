package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// Host-runtime profiling for the experiments. The simulation's latencies
// are virtual, but its cost on the host — CPU, allocations, scheduler
// contention — is real and is what the allocs/op regression gate and the
// zero-allocation roadmap item need to see. Profile runs one experiment
// under the Go runtime profilers and writes standard pprof files, so
// `go tool pprof` works on them directly.
//
// The mutex and block profilers are sampled globally by the runtime, so
// their rates are raised only for the duration of the profiled run and
// restored after (mutex to its previous fraction, block back to off) —
// profiling one experiment must not change the cost of the next.

// Profile runs fn with CPU, mutex, and block profiling enabled and then
// snapshots the heap (after a GC, so live objects are measured rather
// than garbage). Profiles are written to dir/<name>.{cpu,heap,mutex,block}.pprof;
// check.sh's profiling smoke step keys on these names. It returns fn's
// host wall-clock runtime.
func Profile(dir, name string, fn func()) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cpuF, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return 0, err
	}
	defer cpuF.Close()

	prevMutex := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(1)
	defer func() {
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	}()

	if err := pprof.StartCPUProfile(cpuF); err != nil {
		return 0, err
	}
	elapsed := hostDuration(fn)
	pprof.StopCPUProfile()

	runtime.GC()
	for _, p := range []string{"heap", "mutex", "block"} {
		f, err := os.Create(filepath.Join(dir, name+"."+p+".pprof"))
		if err != nil {
			return elapsed, err
		}
		prof := pprof.Lookup(p)
		if prof == nil {
			_ = f.Close()
			return elapsed, fmt.Errorf("runtime profile %q unavailable", p)
		}
		if err := prof.WriteTo(f, 0); err != nil {
			_ = f.Close()
			return elapsed, err
		}
		if err := f.Close(); err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// hostDuration runs fn and returns its host wall-clock runtime: how long
// the machine took to execute the profiled simulation, which is
// inherently a wall-clock quantity (the profiles themselves are sampled
// on host time) and never feeds back into any simulated latency.
func hostDuration(fn func()) time.Duration {
	start := time.Now() //vet:allow virtualtime measures host runtime of the profiled run, not simulated latency
	fn()
	return time.Since(start) //vet:allow virtualtime host-runtime measurement is genuinely wall-clock
}

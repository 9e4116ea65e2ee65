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
// Recording every block and mutex event is not free: on quick fig14 it put
// 13.7 % of the CPU samples under runtime.blockevent. So the CPU profile
// and the contention profiles come from two runs of the experiment, which
// is deterministic: the first under the CPU profiler alone, the second, a
// rerun, recording every block and mutex event. The mutex and block
// profilers are sampled globally by the runtime, so their rates are raised
// only for the rerun and restored after (mutex to its previous fraction,
// block back to off) — profiling one experiment must not change the cost
// of the next.

// Profile runs the experiment twice: run(false) under the CPU profiler,
// after which the heap is snapshotted (after a GC, so live objects are
// measured rather than garbage), then run(true), the rerun, with block and
// mutex profiling enabled; run discards what the rerun prints. Profiles are
// written to dir/<name>.{cpu,heap}.pprof from the first run and
// dir/<name>.rerun.{block,mutex}.pprof from the rerun; check.sh's
// profiling smoke step keys on these names. It returns the first run's
// host wall-clock runtime.
func Profile(dir, name string, run func(rerun bool)) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cpuF, err := os.Create(filepath.Join(dir, name+".cpu.pprof"))
	if err != nil {
		return 0, err
	}
	defer cpuF.Close()
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		return 0, err
	}
	elapsed := hostDuration(func() { run(false) })
	pprof.StopCPUProfile()
	runtime.GC()
	if err := writeProfile(dir, name+".heap", "heap"); err != nil {
		return elapsed, err
	}

	prevMutex := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(1)
	defer func() {
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	}()
	run(true)
	for _, p := range []string{"block", "mutex"} {
		if err := writeProfile(dir, name+".rerun."+p, p); err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// writeProfile writes the runtime profile p to dir/<file>.pprof.
func writeProfile(dir, file, p string) error {
	prof := pprof.Lookup(p)
	if prof == nil {
		return fmt.Errorf("runtime profile %q unavailable", p)
	}
	f, err := os.Create(filepath.Join(dir, file+".pprof"))
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
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

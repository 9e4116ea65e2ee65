package metrics

import (
	"sync"
	"time"
)

// Pricing constants. Lambda prices are the ones quoted in the paper's
// Figure 9 caption; the VM rate is calibrated so that a 512-vCPU serverful
// cluster running the 300-second Spotify workload costs the paper's $2.50.
const (
	// LambdaGBSecondUSD is AWS Lambda's price per GB-second, billed at
	// 1 ms granularity.
	LambdaGBSecondUSD = 0.0000166667
	// LambdaPerRequestUSD is AWS Lambda's price per invocation
	// ($0.20 per 1M requests).
	LambdaPerRequestUSD = 0.20 / 1e6
	// VMvCPUSecondUSD is the serverful per-vCPU-second rate
	// ($2.50 / (512 vCPU × 300 s)).
	VMvCPUSecondUSD = 2.50 / (512.0 * 300.0)
)

// LambdaMeter accumulates pay-per-use serverless cost: each NameNode is
// billed for every millisecond it spends actively serving at least one
// request, at its configured memory size, plus a per-request charge for
// HTTP invocations (Figure 9's primary λFS cost model).
type LambdaMeter struct {
	mu       sync.Mutex
	origin   time.Time
	activeMS float64 // GB-milliseconds of active serving
	requests uint64
	series   *Timeseries // cumulative-cost curve support: per-second spend
}

// NewLambdaMeter returns a meter whose per-second cost series starts at
// origin.
func NewLambdaMeter(origin time.Time) *LambdaMeter {
	return &LambdaMeter{origin: origin, series: NewTimeseries(origin)}
}

// BillActive charges for a NameNode with memGB of memory serving requests
// for the virtual interval [start, start+d).
func (m *LambdaMeter) BillActive(start time.Time, d time.Duration, memGB float64) {
	if d <= 0 {
		return
	}
	// Lambda bills at 1ms granularity: the active interval is rounded to the
	// nearest millisecond (half up), and never below one.
	ms := float64(d.Round(time.Millisecond)) / float64(time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	usd := ms / 1000 * memGB * LambdaGBSecondUSD
	m.mu.Lock()
	m.activeMS += ms * memGB
	m.mu.Unlock()
	m.series.Add(start, usd)
}

// BillRequest charges one HTTP invocation.
func (m *LambdaMeter) BillRequest(t time.Time) {
	m.mu.Lock()
	m.requests++
	m.mu.Unlock()
	m.series.Add(t, LambdaPerRequestUSD)
}

// TotalUSD returns the cumulative cost so far.
func (m *LambdaMeter) TotalUSD() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeMS/1000*LambdaGBSecondUSD + float64(m.requests)*LambdaPerRequestUSD
}

// Requests returns the number of billed invocations.
func (m *LambdaMeter) Requests() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests
}

// PerSecondUSD returns the per-second spend series (instantaneous cost).
func (m *LambdaMeter) PerSecondUSD() []float64 { return m.series.Values() }

// CumulativeUSD returns the running cumulative cost per second
// (Figure 9's curves).
func (m *LambdaMeter) CumulativeUSD() []float64 {
	per := m.series.Values()
	out := make([]float64, len(per))
	var cum float64
	for i, v := range per {
		cum += v
		out[i] = cum
	}
	return out
}

// ProvisionedMeter implements the paper's "simplified" cost model: an
// instance incurs cost for every second it is *provisioned*, like a VM,
// regardless of whether it is serving. It also serves as the serverful VM
// meter by billing a fixed vCPU count for the workload duration.
type ProvisionedMeter struct {
	mu      sync.Mutex
	origin  time.Time
	series  *Timeseries
	gbHours float64
}

// NewProvisionedMeter returns a provisioned-time meter starting at origin.
func NewProvisionedMeter(origin time.Time) *ProvisionedMeter {
	return &ProvisionedMeter{origin: origin, series: NewTimeseries(origin)}
}

// BillProvisioned charges memGB of provisioned function memory for the
// interval [start, start+d) at the Lambda GB-second rate (the paper's
// simplified λFS model). The charge is spread across the per-second
// series so cumulative-cost curves accrue smoothly even when instances
// are billed at termination.
func (m *ProvisionedMeter) BillProvisioned(start time.Time, d time.Duration, memGB float64) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	m.gbHours += d.Hours() * memGB
	m.mu.Unlock()
	for remaining, at := d, start; remaining > 0; {
		chunk := time.Second
		if chunk > remaining {
			chunk = remaining
		}
		m.series.Add(at, chunk.Seconds()*memGB*LambdaGBSecondUSD)
		at = at.Add(chunk)
		remaining -= chunk
	}
}

// TotalUSD returns the cumulative provisioned cost.
func (m *ProvisionedMeter) TotalUSD() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gbHours * 3600 * LambdaGBSecondUSD
}

// CumulativeUSD returns the cumulative spend per second.
func (m *ProvisionedMeter) CumulativeUSD() []float64 {
	per := m.series.Values()
	out := make([]float64, len(per))
	var cum float64
	for i, v := range per {
		cum += v
		out[i] = cum
	}
	return out
}

// VMCost returns the serverful cost of running vCPUs for duration d
// (HopsFS and HopsFS+Cache in Figures 8(c), 9 and 13).
func VMCost(vCPUs int, d time.Duration) float64 {
	return float64(vCPUs) * d.Seconds() * VMvCPUSecondUSD
}

// VMCostSeries returns the constant per-second spend of a vCPU cluster
// over n seconds.
func VMCostSeries(vCPUs int, seconds int) []float64 {
	out := make([]float64, seconds)
	per := float64(vCPUs) * VMvCPUSecondUSD
	for i := range out {
		out[i] = per
	}
	return out
}

// PerfPerCost computes operations-per-second-per-dollar from a throughput
// (ops/sec) and an instantaneous cost ($/sec). Zero cost yields zero to
// keep series plottable.
func PerfPerCost(opsPerSec, usdPerSec float64) float64 {
	if usdPerSec <= 0 {
		return 0
	}
	return opsPerSec / usdPerSec
}

// PerfPerCostSeries zips a throughput series with a cost series
// (Figure 8(c)).
func PerfPerCostSeries(ops, usd []float64) []float64 {
	n := len(ops)
	if len(usd) < n {
		n = len(usd)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = PerfPerCost(ops[i], usd[i])
	}
	return out
}

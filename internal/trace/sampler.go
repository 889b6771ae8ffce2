package trace

import "numacs/internal/metrics"

// TenantCount is one tenant's cumulative completion/shed counters at a
// sampling instant; the sampler converts consecutive counts into per-window
// deltas.
type TenantCount struct {
	// Name identifies the tenant.
	Name string `json:"name"`
	// Completed and Shed are statement counts.
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
}

// Sample is one window of the time-series: the counter deltas accumulated
// over (Time-Window, Time], plus instantaneous scheduler queue depths and
// optional per-tenant deltas at the window's end.
type Sample struct {
	// Time is the window's end in virtual seconds; Window its length.
	Time   float64 `json:"time"`
	Window float64 `json:"window"`
	// Delta holds the counter growth over the window (per-socket MC bytes,
	// link traffic, completed statements, task counts, ...).
	Delta metrics.Snapshot `json:"delta"`
	// QueueDepths is the per-socket scheduler queue depth at the sampling
	// instant (nil when no queue-depth source is wired).
	QueueDepths []int `json:"queue_depths,omitempty"`
	// Tenants holds per-tenant completion/shed deltas over the window (nil
	// without a tenant source).
	Tenants []TenantCount `json:"tenants,omitempty"`
}

// MCGiBs returns the window's per-socket memory throughput in GiB/s.
func (s Sample) MCGiBs() []float64 { return s.Delta.MCGiBs(s.Window) }

// TotalMCGiBs returns the window's machine-wide memory throughput in GiB/s.
func (s Sample) TotalMCGiBs() float64 {
	if s.Window <= 0 {
		return 0
	}
	return s.Delta.TotalMCBytes() / s.Window / (1 << 30)
}

// Sampler is the windowed time-series recorder: registered as a simulation
// actor, it snapshots the engine counters every Interval of virtual time and
// stores the deltas. It only reads — sampling never perturbs the run. The
// final partial window never ticks inside sim.Run (the loop exits at the
// horizon), so callers finish with Flush.
type Sampler struct {
	// Interval is the sampling period in virtual seconds.
	Interval float64
	// QueueDepths optionally supplies per-socket scheduler queue depths at
	// each sampling instant (wired by the engine to sched.SocketQueueDepths).
	QueueDepths func() []int
	// TenantCounts optionally supplies cumulative per-tenant counters; the
	// sampler differences consecutive readings into per-window deltas. The
	// source must return tenants in a stable order.
	TenantCounts func() []TenantCount

	counters    *metrics.Counters
	last        float64
	prev        metrics.Snapshot
	prevTenants []TenantCount
	samples     []Sample
}

// NewSampler builds a sampler over the given counters. The caller registers
// it as a sim actor and optionally wires the QueueDepths / TenantCounts
// sources.
func NewSampler(interval float64, c *metrics.Counters) *Sampler {
	return &Sampler{Interval: interval, counters: c}
}

// Tick samples at the first tick at or past each multiple of Interval, so
// the windows stay on that grid even when Interval is not a whole number of
// simulator steps. It implements sim.Actor.
func (s *Sampler) Tick(now float64) {
	if now >= float64(len(s.samples)+1)*s.Interval*(1-1e-9) {
		s.take(now)
	}
}

// Flush records the final partial window ending at now (no-op if nothing
// elapsed since the last sample). Call it once after the run's last
// sim.Run.
func (s *Sampler) Flush(now float64) {
	if now > s.last+s.Interval*1e-9 {
		s.take(now)
	}
}

// Samples returns the recorded windows, oldest first.
func (s *Sampler) Samples() []Sample { return s.samples }

// take closes the current window at now.
func (s *Sampler) take(now float64) {
	cur := s.counters.Snapshot()
	smp := Sample{Time: now, Window: now - s.last, Delta: cur.Sub(s.prev)}
	if s.QueueDepths != nil {
		smp.QueueDepths = s.QueueDepths()
	}
	if s.TenantCounts != nil {
		ts := s.TenantCounts()
		smp.Tenants = make([]TenantCount, len(ts))
		for i, t := range ts {
			d := t
			if i < len(s.prevTenants) && s.prevTenants[i].Name == t.Name {
				d.Completed -= s.prevTenants[i].Completed
				d.Shed -= s.prevTenants[i].Shed
			}
			smp.Tenants[i] = d
		}
		s.prevTenants = ts
	}
	s.samples = append(s.samples, smp)
	s.prev = cur
	s.last = now
}

package metrics

// Snapshot is a point-in-time value copy of the accumulating Counters
// fields. Two snapshots subtract into a windowed delta (Sub), which is how
// the trace sampler turns the run-long accumulators into a time-series
// without resetting them. Latency samples are not copied — a snapshot is a
// counter copy, not a distribution; QueriesDone carries the completion
// count.
type Snapshot struct {
	// MCBytes, LocalBytes, RemoteBytes mirror the per-socket traffic
	// accumulators.
	MCBytes     []float64 `json:"mc_bytes"`
	LocalBytes  []float64 `json:"local_bytes,omitempty"`
	RemoteBytes []float64 `json:"remote_bytes,omitempty"`
	// LinkDataBytes and LinkTotalBytes mirror the interconnect accumulators;
	// LLCLocal and LLCRemote the cache-line locality counters.
	LinkDataBytes  float64 `json:"link_data_bytes"`
	LinkTotalBytes float64 `json:"link_total_bytes"`
	LLCLocal       float64 `json:"llc_local,omitempty"`
	LLCRemote      float64 `json:"llc_remote,omitempty"`
	// Instructions and BusyCycles mirror the per-socket compute
	// accumulators.
	Instructions []float64 `json:"instructions,omitempty"`
	BusyCycles   []float64 `json:"busy_cycles,omitempty"`
	// TasksExecuted, TasksStolen, QueriesDone and WorkerBusySeconds mirror
	// the scheduler counters.
	TasksExecuted     uint64  `json:"tasks_executed"`
	TasksStolen       uint64  `json:"tasks_stolen"`
	QueriesDone       uint64  `json:"queries_done"`
	WorkerBusySeconds float64 `json:"worker_busy_seconds"`
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		MCBytes:           append([]float64(nil), c.MCBytes...),
		LocalBytes:        append([]float64(nil), c.LocalBytes...),
		RemoteBytes:       append([]float64(nil), c.RemoteBytes...),
		LinkDataBytes:     c.LinkDataBytes,
		LinkTotalBytes:    c.LinkTotalBytes,
		LLCLocal:          c.LLCLocal,
		LLCRemote:         c.LLCRemote,
		Instructions:      append([]float64(nil), c.Instructions...),
		BusyCycles:        append([]float64(nil), c.BusyCycles...),
		TasksExecuted:     c.TasksExecuted,
		TasksStolen:       c.TasksStolen,
		QueriesDone:       c.QueriesDone,
		WorkerBusySeconds: c.WorkerBusySeconds,
	}
}

// Sub returns s - prev field by field. Slices shorter than s's (notably the
// nil slices of a zero-value Snapshot) are treated as zeros.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := s
	out.MCBytes = subSlice(s.MCBytes, prev.MCBytes)
	out.LocalBytes = subSlice(s.LocalBytes, prev.LocalBytes)
	out.RemoteBytes = subSlice(s.RemoteBytes, prev.RemoteBytes)
	out.Instructions = subSlice(s.Instructions, prev.Instructions)
	out.BusyCycles = subSlice(s.BusyCycles, prev.BusyCycles)
	out.LinkDataBytes -= prev.LinkDataBytes
	out.LinkTotalBytes -= prev.LinkTotalBytes
	out.LLCLocal -= prev.LLCLocal
	out.LLCRemote -= prev.LLCRemote
	out.TasksExecuted -= prev.TasksExecuted
	out.TasksStolen -= prev.TasksStolen
	out.QueriesDone -= prev.QueriesDone
	out.WorkerBusySeconds -= prev.WorkerBusySeconds
	return out
}

// TotalMCBytes sums the snapshot's per-socket memory bytes.
func (s Snapshot) TotalMCBytes() float64 {
	t := 0.0
	for _, b := range s.MCBytes {
		t += b
	}
	return t
}

// MCGiBs converts the snapshot's per-socket memory bytes into GiB/s over a
// window in seconds.
func (s Snapshot) MCGiBs(window float64) []float64 {
	out := make([]float64, len(s.MCBytes))
	if window <= 0 {
		return out
	}
	for i, b := range s.MCBytes {
		out[i] = b / window / (1 << 30)
	}
	return out
}

// subSlice returns a - b elementwise, treating missing b entries as zero.
func subSlice(a, b []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	for i := range out {
		if i < len(b) {
			out[i] -= b[i]
		}
	}
	return out
}

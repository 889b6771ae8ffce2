package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// latencyStep is the simulated step the grid streams are multiples of.
const latencyStep = 25e-6

// checkOracle compares every read of h with the sorted-slice oracle o, bit
// for bit.
func checkOracle(t *testing.T, at string, h *Histogram, o *sliceHistogram) {
	t.Helper()
	if h.N() != o.N() {
		t.Fatalf("%s: N = %d, oracle %d", at, h.N(), o.N())
	}
	o.sortSamples() // the multiset sums in ascending order
	type read struct {
		name      string
		got, want float64
	}
	reads := []read{{"max", h.Max(), o.Max()}, {"mean", h.Mean(), o.Mean()}}
	for _, p := range []float64{0, 5, 50, 99, 99.9, 100} {
		reads = append(reads, read{fmt.Sprintf("p%v", p), h.Percentile(p), o.Percentile(p)})
	}
	for _, r := range reads {
		if math.Float64bits(r.got) != math.Float64bits(r.want) {
			t.Fatalf("%s: %s = %v, oracle %v", at, r.name, r.got, r.want)
		}
	}
}

// checkCountersOracle compares Counters.Latencies, field by field, and the
// latency tail of Fingerprint with the per-sample oracles over lats.
func checkCountersOracle(t *testing.T, at string, c *Counters, lats []float64) {
	t.Helper()
	got, want := reflect.ValueOf(c.Latencies()), reflect.ValueOf(sliceLatencies(lats))
	for i := 0; i < got.NumField(); i++ {
		g, w := got.Field(i), want.Field(i)
		same := g.Interface() == w.Interface()
		if g.Kind() == reflect.Float64 {
			same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
		}
		if !same {
			t.Fatalf("%s: LatencyStats.%s = %v, oracle %v", at, got.Type().Field(i).Name, g, w)
		}
	}
	if fp, tail := Fingerprint(c), sliceFingerprintLatencies(lats); !strings.HasSuffix(fp, tail) {
		t.Fatalf("%s: fingerprint latency tail differs:\n%s\noracle:\n%s", at, fp[strings.Index(fp, "latencies "):], tail)
	}
}

// TestHistogramMatchesOracle feeds the multiset and the sorted-slice oracle
// the same random streams, with reads, merges and resets interleaved among
// the records, and requires every read to agree bit for bit.
func TestHistogramMatchesOracle(t *testing.T) {
	streams := map[string]func(*rand.Rand) float64{
		// Step multiples reached by different step counts: equal in exact
		// arithmetic, a few ulps apart in float64.
		"grid": func(r *rand.Rand) float64 {
			k, j := r.Intn(400), r.Intn(2000)
			return float64(k+j)*latencyStep - float64(j)*latencyStep
		},
		"offgrid": func(r *rand.Rand) float64 { return r.ExpFloat64() * 1e-3 },
		"duplicates": func(r *rand.Rand) float64 {
			return []float64{0, 1e-3, 2e-3, 2.5e-3, 40e-3}[r.Intn(5)]
		},
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			var h Histogram
			var o sliceHistogram
			c := New(1)
			var lats []float64
			for op := 0; op < 20000; op++ {
				switch x := r.Float64(); {
				case x < 0.97:
					v := next(r)
					h.Record(v)
					o.Record(v)
					c.AddLatency(v)
					lats = append(lats, v)
				case x < 0.98:
					checkOracle(t, name, &h, &o)
					checkCountersOracle(t, name, c, lats)
				case x < 0.9995:
					// A merge source with pending samples, sometimes with
					// folded ones too.
					var src Histogram
					var osrc sliceHistogram
					for i := r.Intn(200); i > 0; i-- {
						v := next(r)
						src.Record(v)
						osrc.Record(v)
						if r.Intn(50) == 0 {
							src.Max()
						}
					}
					n := src.N()
					h.Merge(&src)
					o.Merge(&osrc)
					checkOracle(t, name+" merge source", &src, &osrc)
					if src.N() != n {
						t.Fatalf("merge changed its source: N %d -> %d", n, src.N())
					}
				default:
					h.Reset()
					o.Reset()
					c.Reset()
					lats = lats[:0]
				}
			}
			checkOracle(t, name, &h, &o)
			checkCountersOracle(t, name, c, lats)
		})
	}
}

// TestLatencyStoreAllocs: once warm, a latency store allocates nothing per
// statement. Recording a million step-grid latencies into a Counters and
// into a Histogram allocates 0, and Counters.Latencies reads them without a
// copy.
func TestLatencyStoreAllocs(t *testing.T) {
	const samples = 1_000_000
	grid := func(i int) float64 {
		k, j := i%331, (i/331)%5
		return float64(k+j)*latencyStep - float64(j)*latencyStep
	}
	c := New(4)
	if a := testing.AllocsPerRun(1, func() {
		c.Reset()
		for i := 0; i < samples; i++ {
			c.AddLatency(grid(i))
		}
	}); a != 0 {
		t.Errorf("Counters: %v allocations per million latencies, want 0", a)
	}
	if a := testing.AllocsPerRun(5, func() { c.Latencies() }); a != 0 {
		t.Errorf("Counters.Latencies: %v allocations, want 0", a)
	}
	var h Histogram
	if a := testing.AllocsPerRun(1, func() {
		h.Reset()
		for i := 0; i < samples; i++ {
			h.Record(grid(i))
		}
	}); a != 0 {
		t.Errorf("Histogram: %v allocations per million samples, want 0", a)
	}
	if h.N() != samples || c.Latencies().N != samples {
		t.Fatalf("stores hold %d and %d samples, want %d", h.N(), c.Latencies().N, samples)
	}
}

// BenchmarkHistogramRecord times Record, one call per "row", in the two
// shapes the engine's latency stores take:
//   - grid: 328 distinct values, the distinct closed-loop latencies a
//     seed-1 shared-star run of the benchmark records in one second;
//     closed-loop latencies are step multiples, so every Record finds its
//     value;
//   - offgrid: every value distinct, like rw-burst's latencies timed from an
//     off-grid due time; the store restarts every 65536 rows, near rw-burst's
//     46,120 latencies a second, so its size stays bounded.
func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("grid", func(b *testing.B) {
		vals := make([]float64, 328)
		for i := range vals {
			vals[i] = float64(i+1) * latencyStep
		}
		var h Histogram
		for _, v := range vals {
			h.Record(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Record(vals[(i*97)%len(vals)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
	})
	b.Run("offgrid", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		vals := make([]float64, 1<<16)
		for i := range vals {
			vals[i] = r.ExpFloat64() * 1e-3
		}
		var h Histogram
		for _, v := range vals {
			h.Record(v)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(vals) == 0 {
				h.Reset()
			}
			h.Record(vals[i%len(vals)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
	})
}

// Package metrics provides the measurement utilities used by the experiment
// harness: monotonically increasing counters, per-node time series of
// reported cluster sizes, percentile helpers, and per-node bandwidth
// accounting used to regenerate Table 2 of the paper.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonically increasing counter. It sits on
// the engine's per-event path, so it is a single atomic word, not a mutex.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a concurrency-safe last-value metric (e.g. the engine's current
// adaptive batching window in nanoseconds). Unlike Counter it can move in
// both directions.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta atomically (e.g. open-connection counts that
// rise on dial and fall on close).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Distribution accumulates count/sum/max of a stream of observations, enough
// to report mean and peak batch sizes without retaining samples.
type Distribution struct {
	mu    sync.Mutex
	count int64
	sum   float64
	max   float64
}

// Observe records one observation.
func (d *Distribution) Observe(v float64) {
	d.mu.Lock()
	d.count++
	d.sum += v
	if v > d.max {
		d.max = v
	}
	d.mu.Unlock()
}

// Count returns the number of observations.
func (d *Distribution) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// DistributionSummary is a point-in-time aggregate of a Distribution.
type DistributionSummary struct {
	Count int64
	Mean  float64
	Max   float64
}

// Summary returns the current aggregate.
func (d *Distribution) Summary() DistributionSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DistributionSummary{Count: d.count, Max: d.max}
	if d.count > 0 {
		s.Mean = d.sum / float64(d.count)
	}
	return s
}

// Sample is one observation in a time series: the time it was recorded and
// the observed value (for membership experiments, the reported cluster size).
type Sample struct {
	At    time.Time
	Value float64
}

// Series is a concurrency-safe append-only time series.
type Series struct {
	mu      sync.Mutex
	samples []Sample
}

// Record appends an observation.
func (s *Series) Record(at time.Time, v float64) {
	s.mu.Lock()
	s.samples = append(s.samples, Sample{At: at, Value: v})
	s.mu.Unlock()
}

// Samples returns a copy of all observations in insertion order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Len returns the number of observations recorded so far.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Last returns the most recent observation and true, or false if empty.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// UniqueValues returns the number of distinct values observed. The paper's
// Table 1 reports the number of unique cluster sizes seen during bootstrap.
func (s *Series) UniqueValues() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := make(map[float64]struct{}, len(s.samples))
	for _, sm := range s.samples {
		set[sm.Value] = struct{}{}
	}
	return len(set)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the values using
// nearest-rank on a sorted copy. It returns 0 for an empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean, or 0 for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Max returns the maximum value, or 0 for an empty input.
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// BandwidthRecorder accumulates sent/received byte counts into fixed-width
// time buckets per node. Table 2 of the paper reports mean, p99 and max
// KB/s per process; the recorder produces exactly those aggregates.
type BandwidthRecorder struct {
	mu       sync.Mutex
	start    time.Time
	bucket   time.Duration
	received map[int]float64
	sent     map[int]float64
}

// NewBandwidthRecorder creates a recorder with the given bucket width.
func NewBandwidthRecorder(start time.Time, bucket time.Duration) *BandwidthRecorder {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &BandwidthRecorder{
		start:    start,
		bucket:   bucket,
		received: make(map[int]float64),
		sent:     make(map[int]float64),
	}
}

func (b *BandwidthRecorder) idx(at time.Time) int {
	d := at.Sub(b.start)
	if d < 0 {
		d = 0
	}
	return int(d / b.bucket)
}

// RecordReceived accounts bytes received at the given time.
func (b *BandwidthRecorder) RecordReceived(at time.Time, bytes int) {
	b.mu.Lock()
	b.received[b.idx(at)] += float64(bytes)
	b.mu.Unlock()
}

// RecordSent accounts bytes sent at the given time.
func (b *BandwidthRecorder) RecordSent(at time.Time, bytes int) {
	b.mu.Lock()
	b.sent[b.idx(at)] += float64(bytes)
	b.mu.Unlock()
}

// ratesPerSecond converts bucket totals into per-second rates, including
// zero-valued buckets between the first and last active bucket so quiet
// periods lower the mean, as they would in a real packet capture.
func (b *BandwidthRecorder) ratesPerSecond(buckets map[int]float64) []float64 {
	if len(buckets) == 0 {
		return nil
	}
	minIdx, maxIdx := math.MaxInt32, -1
	for i := range buckets {
		if i < minIdx {
			minIdx = i
		}
		if i > maxIdx {
			maxIdx = i
		}
	}
	secondsPerBucket := b.bucket.Seconds()
	rates := make([]float64, 0, maxIdx-minIdx+1)
	for i := minIdx; i <= maxIdx; i++ {
		rates = append(rates, buckets[i]/secondsPerBucket)
	}
	return rates
}

// ReceivedRates returns the per-bucket received rates in bytes/second.
func (b *BandwidthRecorder) ReceivedRates() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ratesPerSecond(b.received)
}

// SentRates returns the per-bucket sent rates in bytes/second.
func (b *BandwidthRecorder) SentRates() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ratesPerSecond(b.sent)
}

// BandwidthSummary is the Table-2 style aggregate for one direction.
type BandwidthSummary struct {
	MeanKBps float64 `json:"mean"`
	P99KBps  float64 `json:"p99"`
	MaxKBps  float64 `json:"max"`
}

// Summarize computes mean/p99/max in KB/s from byte/s rates.
func Summarize(rates []float64) BandwidthSummary {
	kb := make([]float64, len(rates))
	for i, r := range rates {
		kb[i] = r / 1024.0
	}
	return BandwidthSummary{
		MeanKBps: Mean(kb),
		P99KBps:  Percentile(kb, 99),
		MaxKBps:  Max(kb),
	}
}

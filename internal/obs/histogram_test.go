package obs

import (
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	// Every value must fall inside [BucketLo(i), BucketHi(i)) of its own
	// bucket.
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 100, 1 << 20, 1 << 50} {
		i := bucketOf(v)
		if v < BucketLo(i) || v >= BucketHi(i) {
			t.Errorf("value %d not in bucket %d bounds [%d,%d)", v, i, BucketLo(i), BucketHi(i))
		}
	}
	if BucketHi(0) != 1 || BucketLo(0) != 0 {
		t.Errorf("bucket 0 bounds [%d,%d), want [0,1)", BucketLo(0), BucketHi(0))
	}
}

func TestHistogramObserve(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 100, 1000, -7} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 1106 { // -7 clamps to 0
		t.Errorf("Sum = %d, want 1106", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d, want 1000", h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// The estimate is an upper bound within one power of two, clamped
	// to the observed max.
	for _, c := range []struct {
		q        float64
		lo, hi   int64
		describe string
	}{
		{0.5, 500, 1000, "p50"},
		{0.9, 900, 1000, "p90"},
		{1.0, 1000, 1000, "p100 clamps to max"},
		{0.0, 1, 2, "p0 is the smallest bucket's bound"},
	} {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: Quantile(%v) = %d, want in [%d,%d]", c.describe, c.q, got, c.lo, c.hi)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	h := &Histogram{}
	c := &Counter{}
	g := &Gauge{}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for j := int64(0); j < perG; j++ {
				h.Observe(seed + j)
				c.Add(1)
				g.Set(j)
			}
		}(int64(i))
	}
	done := make(chan struct{})
	go func() { // concurrent reader: snapshots must not race with writers
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Buckets()
			_ = h.Quantile(0.9)
			_ = c.Load()
			_ = g.Load()
			time.Sleep(time.Microsecond)
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != goroutines*perG {
		t.Errorf("histogram Count = %d, want %d", h.Count(), goroutines*perG)
	}
	if c.Load() != goroutines*perG {
		t.Errorf("counter = %d, want %d", c.Load(), goroutines*perG)
	}
}

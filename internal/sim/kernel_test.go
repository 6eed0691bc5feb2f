package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(-100, func() { ran = true })
	k.RunAll()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(100, func() {
		k.ScheduleAt(10, func() {
			if k.Now() != 100 {
				t.Errorf("past event ran at %v, want 100", k.Now())
			}
		})
	})
	k.RunAll()
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	e := k.Schedule(10, func() { ran = true })
	if !e.Pending() {
		t.Fatal("event should be pending")
	}
	if !e.Cancel() {
		t.Fatal("Cancel should report true for a pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	k := NewKernel(1)
	e := k.Schedule(1, func() {})
	k.RunAll()
	if e.Cancel() {
		t.Fatal("Cancel of fired event should report false")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.Run(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if k.Now() != 12 {
		t.Fatalf("Now = %v, want 12", k.Now())
	}
	// Boundary: event exactly at `until` fires.
	k.Run(15)
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("fired %v, want event at 15 included", fired)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Schedule(1, func() { count++; k.Stop() })
	k.Schedule(2, func() { count++ })
	k.RunAll()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (kernel stopped)", count)
	}
	if !k.Stopped() {
		t.Fatal("Stopped should be true")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	r := k.Every(10, func() { at = append(at, k.Now()) })
	k.Run(35)
	r.Stop()
	k.Run(100)
	if len(at) != 3 || at[0] != 10 || at[1] != 20 || at[2] != 30 {
		t.Fatalf("periodic fired at %v, want [10 20 30]", at)
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var r *Repeater
	r = k.Every(5, func() {
		n++
		if n == 3 {
			r.Stop()
		}
	})
	k.RunAll()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel(seed)
		var trace []Time
		var spawn func()
		spawn = func() {
			trace = append(trace, k.Now())
			if len(trace) < 50 {
				k.Schedule(Time(1+k.Rand().Intn(100)), spawn)
			}
		}
		k.Schedule(0, spawn)
		k.RunAll()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the kernel ends at the maximum delay.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			k.Schedule(d, func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others to fire.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, mask uint64) bool {
		k := NewKernel(9)
		count := int(n % 60)
		fired := make([]bool, count)
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			events[i] = k.Schedule(Time(i%7), func() { fired[i] = true })
		}
		cancelled := make([]bool, count)
		for i := 0; i < count; i++ {
			if mask&(1<<(uint(i)%64)) != 0 && i%3 == 0 {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		k.RunAll()
		for i := 0; i < count; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []float64{4, 2, 8, 6} {
		s.Observe(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if q := s.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %v, want 4", q)
	}
	if q := s.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want 8", q)
	}
	if q := s.Quantile(0); q != 2 {
		t.Fatalf("p0 = %v, want 2", q)
	}
	if s.StdDev() <= 0 {
		t.Fatalf("StdDev = %v, want > 0", s.StdDev())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.StdDev() != 0 {
		t.Fatal("empty series should return zeros")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		5 * Microsecond: "5.000us",
		5 * Millisecond: "5.000ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// The lazily seeded source must be the one NewKernel used to build eagerly.
func TestRandStreamMatchesEagerSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1<<62 + 3} {
		got, want := NewKernel(seed).Rand(), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
	k := NewKernel(9)
	if k.Rand() != k.Rand() {
		t.Fatal("Rand returned a second source")
	}
}

// A kernel whose Rand is never called must not carry a math/rand source
// (4.9 KB): a fleet pays per device for whatever NewKernel allocates.
func TestKernelWithoutRandIsSmall(t *testing.T) {
	const n = 1000
	ks := make([]*Kernel, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ks {
		ks[i] = NewKernel(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 512 {
		t.Fatalf("NewKernel allocates %d B, want < 512", per)
	}
	runtime.KeepAlive(ks)
}

func BenchmarkKernelScheduleFire(b *testing.B) {
	k := NewKernel(1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(rng.Intn(1000)), func() {})
		k.Step()
	}
}

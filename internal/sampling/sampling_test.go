package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPeriodicSequence(t *testing.T) {
	p := NewPeriodic(100)
	want := []uint64{99, 199, 299, 399}
	cycle := uint64(0)
	var got []uint64
	for i := 0; i < 4; i++ {
		cycle = p.Next(cycle)
		got = append(got, cycle)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestPeriodicNextFromZero(t *testing.T) {
	p := NewPeriodic(250)
	if first := p.Next(0); first != 249 {
		t.Fatalf("first sample = %d, want 249", first)
	}
	// Next from exactly a sample cycle advances a full period.
	if s := p.Next(249); s != 499 {
		t.Fatalf("Next(249) = %d, want 499", s)
	}
	// Next from mid-interval lands at the interval end.
	if s := p.Next(300); s != 499 {
		t.Fatalf("Next(300) = %d, want 499", s)
	}
}

func TestPeriodicStrictlyIncreasing(t *testing.T) {
	p := NewPeriodic(7)
	cycle := uint64(0)
	last := uint64(0)
	for i := 0; i < 100; i++ {
		cycle = p.Next(cycle)
		if i > 0 && cycle <= last {
			t.Fatalf("non-increasing: %d after %d", cycle, last)
		}
		last = cycle
	}
}

func TestRandomWithinWindows(t *testing.T) {
	r := NewRandom(100, 42)
	cycle := uint64(0)
	for w := uint64(0); w < 50; w++ {
		cycle = r.Next(cycle)
		if cycle/100 < w {
			t.Fatalf("sample %d fell before window %d", cycle, w)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := NewRandom(100, 7)
	b := NewRandom(100, 7)
	ca, cb := uint64(0), uint64(0)
	for i := 0; i < 100; i++ {
		ca, cb = a.Next(ca), b.Next(cb)
		if ca != cb {
			t.Fatalf("same-seed schedules diverged at %d: %d vs %d", i, ca, cb)
		}
	}
}

func TestRandomDifferentSeedsDiffer(t *testing.T) {
	a := NewRandom(1000, 1)
	b := NewRandom(1000, 2)
	ca, cb := uint64(0), uint64(0)
	same := 0
	for i := 0; i < 100; i++ {
		ca, cb = a.Next(ca), b.Next(cb)
		if ca == cb {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("%d/100 identical samples across seeds", same)
	}
}

func TestRandomAverageRateMatchesPeriod(t *testing.T) {
	r := NewRandom(100, 3)
	cycle := uint64(0)
	n := 0
	for cycle < 100_000 {
		cycle = r.Next(cycle)
		n++
	}
	if n < 950 || n > 1050 {
		t.Fatalf("random schedule produced %d samples in 1000 windows", n)
	}
}

func TestZeroIntervalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPeriodic(0) },
		func() { NewRandom(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero interval did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPeriodicNextSaturatesNearMax(t *testing.T) {
	p := NewPeriodic(100)
	if got := p.Next(math.MaxUint64); got != math.MaxUint64 {
		t.Fatalf("Next(MaxUint64) = %d, want saturation at MaxUint64", got)
	}
	// Near the top of the cycle range the next schedule point would
	// overflow; Next must saturate instead of wrapping around to a tiny
	// cycle number (which would make a run near the horizon sample every
	// single cycle).
	for _, c := range []uint64{
		math.MaxUint64 - 1,
		math.MaxUint64 - 99,
		math.MaxUint64 - 100,
		math.MaxUint64/100*100 - 1,
	} {
		if got := p.Next(c); got <= c {
			t.Fatalf("Next(%d) = %d: wrapped or stalled", c, got)
		}
	}
	// Away from the boundary the schedule is the usual one.
	if got := p.Next(12345); got != 12399 {
		t.Fatalf("Next(12345) = %d, want 12399", got)
	}
}

// Property: for any interval, Next always returns a strictly later cycle.
func TestQuickNextStrictlyLater(t *testing.T) {
	f := func(interval uint32, start uint64) bool {
		iv := uint64(interval%10_000) + 1
		p := NewPeriodic(iv)
		r := NewRandom(iv, start)
		s := start % (1 << 40)
		return p.Next(s) > s && r.Next(s) > s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: periodic samples are exactly one per window.
func TestQuickPeriodicOnePerWindow(t *testing.T) {
	f := func(interval uint16) bool {
		iv := uint64(interval%1000) + 2
		p := NewPeriodic(iv)
		cycle := uint64(0)
		for w := uint64(0); w < 20; w++ {
			cycle = p.Next(cycle)
			if cycle/iv != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

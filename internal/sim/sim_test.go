package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if e.Elapsed() != 3*time.Second {
		t.Errorf("elapsed = %v", e.Elapsed())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.Schedule(time.Second, func() {
		fired = append(fired, e.Elapsed())
		e.Schedule(time.Second, func() {
			fired = append(fired, e.Elapsed())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(Epoch.Add(5 * time.Second))
	if count != 5 {
		t.Errorf("events before deadline = %d, want 5", count)
	}
	if e.Now() != Epoch.Add(5*time.Second) {
		t.Errorf("clock = %v", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d", e.Pending())
	}
	e.RunFor(5 * time.Second)
	if count != 10 {
		t.Errorf("all events = %d", count)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Second)
	ran := false
	e.Schedule(-time.Hour, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if e.Elapsed() != time.Second {
		t.Error("negative delay moved the clock backwards")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("events after Stop = %d, want 1", count)
	}
}

func TestPropertyEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Epoch
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				if e.Now().Before(last) {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEngineSaturatesFarFuture checks that delays and absolute times
// beyond the clock's range saturate instead of wrapping to a time
// before now, which would run the event at once.
func TestEngineSaturatesFarFuture(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Second)
	var order []string
	e.Schedule(math.MaxInt64, func() { order = append(order, "max-delay") })
	e.ScheduleAt(Epoch.AddDate(10_000, 0, 0), func() { order = append(order, "far-at") })
	e.ScheduleAt(time.Time{}, func() { order = append(order, "zero-at") })
	e.Schedule(time.Hour, func() { order = append(order, "hour") })

	e.RunFor(2 * time.Hour)
	if len(order) != 2 || order[0] != "zero-at" || order[1] != "hour" {
		t.Fatalf("fired within two hours: %v, want [zero-at hour]", order)
	}
	if e.Elapsed() != time.Second+2*time.Hour {
		t.Fatalf("clock = %v, want 2h1s", e.Elapsed())
	}
	// RunFor with the largest delay saturates too, reaching the far events
	// in scheduling order.
	e.RunFor(math.MaxInt64)
	if len(order) != 4 || order[2] != "max-delay" || order[3] != "far-at" {
		t.Fatalf("order = %v", order)
	}
	if e.Elapsed() != math.MaxInt64 || e.Now().Before(Epoch) {
		t.Errorf("clock = %v (%v), want saturated", e.Elapsed(), e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d", e.Pending())
	}
}

// TestEngineRunUntilEmptyQueue pins the clock, Pending and Stop
// behaviour when there is nothing to run.
func TestEngineRunUntilEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(Epoch.Add(5 * time.Second))
	if e.Elapsed() != 5*time.Second || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("after empty RunUntil: clock %v, pending %d, processed %d", e.Elapsed(), e.Pending(), e.Processed())
	}
	if e.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
	// An earlier deadline never moves the clock back.
	e.RunUntil(Epoch.Add(time.Second))
	if e.Elapsed() != 5*time.Second {
		t.Fatalf("clock moved back to %v", e.Elapsed())
	}
	fired := time.Duration(-1)
	e.Schedule(time.Second, func() { fired = e.Elapsed() })
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunFor(time.Second)
	if fired != 6*time.Second {
		t.Fatalf("event fired at %v, want 6s", fired)
	}
	// A stopped engine neither runs events nor advances its clock.
	e.Stop()
	e.Schedule(0, func() { t.Error("event ran after Stop") })
	e.RunUntil(Epoch.Add(time.Minute))
	if e.Elapsed() != 6*time.Second || e.Pending() != 1 || e.Step() {
		t.Errorf("stopped engine: clock %v, pending %d", e.Elapsed(), e.Pending())
	}
}

// scheduler is the engine surface the random programs drive.
type scheduler interface {
	Now() time.Time
	Schedule(time.Duration, func())
	ScheduleAt(time.Time, func())
	RunUntil(time.Time)
	Run()
	Pending() int
}

// refEngine is the reference model: a plain list kept in scheduling
// order, stably sorted by time before every firing, so same-time events
// fire in scheduling order.
type refEngine struct {
	now time.Duration
	q   []refEvent
}

type refEvent struct {
	at time.Duration
	fn func()
}

func (r *refEngine) Now() time.Time { return Epoch.Add(r.now) }
func (r *refEngine) Pending() int   { return len(r.q) }

func (r *refEngine) Schedule(d time.Duration, fn func()) {
	r.ScheduleAt(Epoch.Add(r.now+max(d, 0)), fn)
}

func (r *refEngine) ScheduleAt(at time.Time, fn func()) {
	r.q = append(r.q, refEvent{at: max(at.Sub(Epoch), r.now), fn: fn})
}

func (r *refEngine) RunUntil(deadline time.Time) {
	r.drain(deadline.Sub(Epoch))
	r.now = max(r.now, deadline.Sub(Epoch))
}

// Run drains the queue without moving the clock past the last event.
func (r *refEngine) Run() { r.drain(math.MaxInt64) }

func (r *refEngine) drain(dl time.Duration) {
	for len(r.q) > 0 {
		sort.SliceStable(r.q, func(i, j int) bool { return r.q[i].at < r.q[j].at })
		if r.q[0].at > dl {
			break
		}
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		ev.fn()
	}
}

// firing is one entry of a program's log: an event firing (id >= 0) or
// a RunUntil checkpoint (id < 0) with the queue length.
type firing struct {
	id, pending int
	at          time.Duration
}

// runProgram drives s through the random program seeded by seed:
// relative and absolute (possibly past) scheduling, same-instant bursts,
// handlers that schedule further events, and RunUntil deadlines. It
// returns the firing log.
func runProgram(s scheduler, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	// A coarse millisecond grid, including negative delays, makes ties
	// and clamping common.
	delay := func() time.Duration { return time.Duration(rng.Intn(8)-1) * time.Millisecond }
	var log []firing
	ids := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := ids
		ids++
		return func() {
			log = append(log, firing{id: id, at: s.Now().Sub(Epoch)})
			if depth < 3 && rng.Intn(3) == 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					s.Schedule(delay(), spawn(depth+1))
				}
			}
		}
	}
	for op := 0; op < 60; op++ {
		switch rng.Intn(5) {
		case 0:
			s.Schedule(delay(), spawn(0))
		case 1:
			s.ScheduleAt(Epoch.Add(time.Duration(rng.Intn(40))*time.Millisecond), spawn(0))
		case 2:
			d := delay()
			for k := rng.Intn(5) + 2; k > 0; k-- {
				s.Schedule(d, spawn(0))
			}
		default:
			s.RunUntil(s.Now().Add(delay()))
			log = append(log, firing{id: -1, pending: s.Pending(), at: s.Now().Sub(Epoch)})
		}
	}
	s.Run()
	return append(log, firing{id: -1, pending: s.Pending(), at: s.Now().Sub(Epoch)})
}

// TestPropertyEngineMatchesReference checks the heap's firing order, clock
// and queue length against the stable-sort reference over random
// programs.
func TestPropertyEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		got := runProgram(NewEngine(), seed)
		want := runProgram(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestEngineSteadyStateDoesNotAllocate pins the queue's steady state:
// once its backing array has grown, scheduling and stepping an existing
// callback allocates nothing.
func TestEngineSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(37*time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkEngineScheduleStep measures one schedule plus one step on a
// queue holding 1,024 events.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		e.Schedule(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i%len(delays)], fn)
		e.Step()
	}
}

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	s1 := NewStreams(42)
	s2 := NewStreams(42)
	a := s1.Stream("client-0")
	b := s2.Stream("client-0")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed + name should give identical streams")
		}
	}
	c := NewStreams(42).Stream("client-1")
	d := NewStreams(43).Stream("client-0")
	if c.Uint64() == NewStreams(42).Stream("client-0").Uint64() && d.Uint64() == NewStreams(42).Stream("client-0").Uint64() {
		t.Error("different names/seeds should give different streams")
	}
}

func TestLinkTransmission(t *testing.T) {
	l := NewLink(LinkSpec{Latency: time.Millisecond, BandwidthBps: 8000}) // 1 KB/s
	rng := rand.New(rand.NewSource(1))
	arr, ok := l.Send(Epoch, 1000, rng) // 1 s transmission
	if !ok {
		t.Fatal("lossless link dropped a packet")
	}
	want := Epoch.Add(time.Second + time.Millisecond)
	if !arr.Equal(want) {
		t.Errorf("arrival = %v, want %v", arr, want)
	}
	// Second packet queues behind the first.
	arr2, _ := l.Send(Epoch, 1000, rng)
	want2 := Epoch.Add(2*time.Second + time.Millisecond)
	if !arr2.Equal(want2) {
		t.Errorf("queued arrival = %v, want %v", arr2, want2)
	}
	sent, lost, bytes := l.Stats()
	if sent != 2 || lost != 0 || bytes != 2000 {
		t.Errorf("stats = %d %d %d", sent, lost, bytes)
	}
}

func TestLinkLoss(t *testing.T) {
	l := NewLink(LinkSpec{Latency: time.Millisecond, BandwidthBps: 1e9, LossProb: 0.5})
	rng := rand.New(rand.NewSource(2))
	losses := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, ok := l.Send(Epoch, 100, rng); !ok {
			losses++
		}
	}
	rate := float64(losses) / n
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("loss rate = %.3f, want ~0.5", rate)
	}
}

func TestLinkZeroBandwidth(t *testing.T) {
	l := NewLink(LinkSpec{Latency: time.Millisecond})
	if l.TransmissionTime(1000) != 0 {
		t.Error("zero-bandwidth link should have no serialisation delay")
	}
}

func TestPaperLinkSpecs(t *testing.T) {
	// A 1 KB packet on the 10 Mbps edge takes 0.8 ms to serialise.
	l := NewLink(EdgeLinkSpec)
	if got := l.TransmissionTime(1000); got != 800*time.Microsecond {
		t.Errorf("edge tx time = %v", got)
	}
	c := NewLink(CoreLinkSpec)
	if got := c.TransmissionTime(1000); got != 16*time.Microsecond {
		t.Errorf("core tx time = %v", got)
	}
}

func TestNormalDelaySample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NormalDelay{Mean: time.Microsecond, Std: 100 * time.Nanosecond}
	var sum time.Duration
	const samples = 20000
	for i := 0; i < samples; i++ {
		d := n.Sample(rng)
		if d < 0 {
			t.Fatal("negative delay sampled")
		}
		sum += d
	}
	mean := sum / samples
	if mean < 900*time.Nanosecond || mean > 1100*time.Nanosecond {
		t.Errorf("sample mean = %v, want ~1µs", mean)
	}
}

func TestPaperDelaysOrdering(t *testing.T) {
	// The paper's central cost claim: signature verification is an order
	// of magnitude costlier than BF operations.
	d := PaperDelays()
	if d.SigVerify.Mean < 10*d.BFLookup.Mean {
		t.Errorf("sig verify (%v) should dwarf BF lookup (%v)", d.SigVerify.Mean, d.BFLookup.Mean)
	}
	if d.SigVerify.Mean < 10*d.BFInsert.Mean {
		t.Errorf("sig verify (%v) should dwarf BF insert (%v)", d.SigVerify.Mean, d.BFInsert.Mean)
	}
}

func TestFitNormal(t *testing.T) {
	if (FitNormal(nil) != NormalDelay{}) {
		t.Error("empty fit should be zero")
	}
	samples := []time.Duration{10, 20, 30, 40, 50}
	fit := FitNormal(samples)
	if fit.Mean != 30 {
		t.Errorf("mean = %v", fit.Mean)
	}
	if fit.Std < 14 || fit.Std > 17 { // sample std of 10..50 is ~15.8
		t.Errorf("std = %v", fit.Std)
	}
}

func TestTrimOutliers(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i)
	}
	trimmed := TrimOutliers(samples, 0.1)
	if len(trimmed) != 80 {
		t.Errorf("trimmed length = %d", len(trimmed))
	}
	for _, s := range trimmed {
		if s < 10 || s >= 90 {
			t.Errorf("outlier %v survived trim", s)
		}
	}
	// Small inputs pass through untouched.
	small := []time.Duration{1, 2, 3}
	if got := TrimOutliers(small, 0.1); len(got) != 3 {
		t.Errorf("small trim = %v", got)
	}
}

func TestCalibrateDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	d, err := CalibrateDelays(500)
	if err != nil {
		t.Fatal(err)
	}
	if d.BFLookup.Mean <= 0 || d.BFInsert.Mean <= 0 || d.SigVerify.Mean <= 0 {
		t.Errorf("calibrated means must be positive: %+v", d)
	}
	// The paper's shape: verification is much costlier than BF ops.
	if d.SigVerify.Mean < 5*d.BFLookup.Mean {
		t.Errorf("calibrated sig verify (%v) should dwarf BF lookup (%v)", d.SigVerify.Mean, d.BFLookup.Mean)
	}
}

package fleet_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"trader/internal/core"
	"trader/internal/event"
	"trader/internal/fleet"
	"trader/internal/sim"
	"trader/internal/wire"
)

func setEvent(v float64) event.Event {
	return event.Event{Kind: event.Input, Name: "set", Source: "test"}.With("x", v)
}

// newLightPool builds a pool of n healthy light devices on k shards.
func newLightPool(t *testing.T, shards, n int) *fleet.Pool {
	t.Helper()
	p := fleet.NewPool(fleet.Options{Shards: shards})
	f := fleet.LightFactory(0)
	for i := 0; i < n; i++ {
		if err := p.AddDevice(fleet.DeviceID(i), int64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestShardRoutingDeterministic(t *testing.T) {
	p := fleet.NewPool(fleet.Options{Shards: 8})
	defer p.Stop()
	used := make(map[int]int)
	for i := 0; i < 1000; i++ {
		id := fleet.DeviceID(i)
		first := p.ShardOf(id)
		for rep := 0; rep < 5; rep++ {
			if got := p.ShardOf(id); got != first {
				t.Fatalf("ShardOf(%q) flapped: %d then %d", id, first, got)
			}
		}
		if first < 0 || first >= 8 {
			t.Fatalf("ShardOf(%q) = %d out of range", id, first)
		}
		used[first]++
	}
	// The hash must actually spread the fleet: every shard gets devices.
	for s := 0; s < 8; s++ {
		if used[s] == 0 {
			t.Fatalf("shard %d got no devices out of 1000: %v", s, used)
		}
	}
}

func TestTargetedDispatchReachesOnlyTarget(t *testing.T) {
	p := newLightPool(t, 4, 16)
	defer p.Stop()
	target := fleet.DeviceID(7)
	for i := 0; i < 5; i++ {
		if err := p.Dispatch(target, setEvent(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	per := p.DeviceStats()
	for id, st := range per {
		want := uint64(0)
		if id == target {
			want = 5
		}
		if st.InputsSeen != want {
			t.Errorf("%s: InputsSeen = %d, want %d", id, st.InputsSeen, want)
		}
	}
	ro := p.Rollup()
	if ro.Dispatched != 5 || ro.Dropped != 0 {
		t.Fatalf("rollup dispatched/dropped = %d/%d, want 5/0", ro.Dispatched, ro.Dropped)
	}
}

func TestDispatchUnknownDeviceCountsDropped(t *testing.T) {
	p := newLightPool(t, 2, 2)
	defer p.Stop()
	if err := p.Dispatch("no-such-device", setEvent(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if ro := p.Rollup(); ro.Dropped != 1 || ro.Dispatched != 0 {
		t.Fatalf("rollup dispatched/dropped = %d/%d, want 0/1", ro.Dispatched, ro.Dropped)
	}
}

// TestStatsConservation is the property the fleet rollup must keep: the sum
// of per-device monitor counters equals the fleet aggregate, whatever mix
// of broadcast and targeted traffic was dispatched.
func TestStatsConservation(t *testing.T) {
	const devices = 60
	p := newLightPool(t, 4, devices)
	defer p.Stop()

	for round := 0; round < 10; round++ {
		if err := p.Broadcast(setEvent(float64(round % 3))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < devices; i += 2 {
		if err := p.Dispatch(fleet.DeviceID(i), setEvent(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Advance(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	ro := p.Rollup()
	per := p.DeviceStats()
	if len(per) != devices {
		t.Fatalf("DeviceStats has %d devices, want %d", len(per), devices)
	}
	var sum core.MonitorStats
	for _, st := range per {
		sum.Add(st)
	}
	if sum != ro.Monitor {
		t.Fatalf("conservation violated: sum(devices) = %+v, fleet = %+v", sum, ro.Monitor)
	}
	if sum != p.Stats() {
		t.Fatalf("Stats() = %+v diverges from device sum %+v", p.Stats(), sum)
	}
	wantDispatched := uint64(10*devices + devices/2)
	if ro.Dispatched != wantDispatched {
		t.Fatalf("Dispatched = %d, want %d", ro.Dispatched, wantDispatched)
	}
	// Healthy fleet: every broadcast produced an echo comparison, no errors.
	if ro.Monitor.Comparisons == 0 || ro.Monitor.Errors != 0 {
		t.Fatalf("unexpected rollup %+v", ro.Monitor)
	}
}

func TestFaultyDevicesDetected(t *testing.T) {
	p := fleet.NewPool(fleet.Options{Shards: 4})
	defer p.Stop()
	// Seeds 1..40: multiples of 4 are faulty -> 10 broken devices.
	f := fleet.LightFactory(4)
	for i := 0; i < 40; i++ {
		if err := p.AddDevice(fleet.DeviceID(i), int64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	var flagged sync.Map
	p.OnReport(func(device string, r wire.ErrorReport) { flagged.Store(device, r.Detector) })
	// Tolerance 1 means the second consecutive deviating echo reports.
	for i := 0; i < 3; i++ {
		if err := p.Broadcast(setEvent(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	n := 0
	flagged.Range(func(k, v any) bool { n++; return true })
	if n != 10 {
		t.Fatalf("flagged %d devices, want the 10 faulty ones", n)
	}
	if ro := p.Rollup(); ro.Reports != 10 {
		t.Fatalf("rollup reports = %d, want 10", ro.Reports)
	}
}

// TestAddRemoveDuringDispatch hammers the pool with broadcast traffic while
// devices churn in and out — the runtime add/remove guarantee, run under
// -race in the standard gate.
func TestAddRemoveDuringDispatch(t *testing.T) {
	p := newLightPool(t, 4, 32)
	defer p.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := p.Broadcast(setEvent(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	f := fleet.LightFactory(0)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("churn-%03d", i)
		if err := p.AddDevice(id, int64(1000+i), f); err != nil {
			t.Fatal(err)
		}
		if i >= 10 {
			gone := fmt.Sprintf("churn-%03d", i-10)
			ok, err := p.RemoveDevice(gone)
			if err != nil || !ok {
				t.Fatalf("RemoveDevice(%s) = %v, %v", gone, ok, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 32+10 {
		t.Fatalf("Size = %d, want %d", got, 32+10)
	}
	// The rollup still balances after churn.
	per := p.DeviceStats()
	var sum core.MonitorStats
	for _, st := range per {
		sum.Add(st)
	}
	if sum != p.Rollup().Monitor {
		t.Fatal("conservation violated after churn")
	}
}

func TestDuplicateAndRemovedDevices(t *testing.T) {
	p := newLightPool(t, 2, 1)
	defer p.Stop()
	if err := p.AddDevice(fleet.DeviceID(0), 99, fleet.LightFactory(0)); err == nil {
		t.Fatal("duplicate AddDevice succeeded")
	}
	ok, err := p.RemoveDevice("missing")
	if err != nil || ok {
		t.Fatalf("RemoveDevice(missing) = %v, %v", ok, err)
	}
	ok, err = p.RemoveDevice(fleet.DeviceID(0))
	if err != nil || !ok {
		t.Fatalf("RemoveDevice = %v, %v", ok, err)
	}
	if p.Size() != 0 {
		t.Fatalf("Size = %d after removal", p.Size())
	}
}

func TestPoolIsGroupMember(t *testing.T) {
	var member core.Member = fleet.NewPool(fleet.Options{Shards: 2})
	p := member.(*fleet.Pool)
	if err := p.AddDevice("tv-a", 4, fleet.LightFactory(2)); err != nil { // seed 4: faulty
		t.Fatal(err)
	}
	g := core.NewGroup()
	if err := g.AddMember("fleet", p); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	g.OnError(func(name string, r wire.ErrorReport) {
		mu.Lock()
		got = append(got, name+":"+r.Detail)
		mu.Unlock()
	})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Broadcast(setEvent(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "fleet:device=tv-a" {
		t.Fatalf("group fan-in = %v, want [fleet:device=tv-a]", got)
	}
	if g.Stats().Errors != 1 {
		t.Fatalf("group stats errors = %d, want 1", g.Stats().Errors)
	}
	g.Stop()
	if err := p.Broadcast(setEvent(1)); err != fleet.ErrStopped {
		t.Fatalf("Broadcast after Stop = %v, want ErrStopped", err)
	}
}

func TestStopIdempotentAndConcurrentOps(t *testing.T) {
	p := newLightPool(t, 4, 8)
	var wg sync.WaitGroup
	var errStopped atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := p.Broadcast(setEvent(1)); err != nil {
					errStopped.Add(1)
					return
				}
			}
		}()
	}
	p.Stop()
	p.Stop() // idempotent
	wg.Wait()
	// After Stop every op reports ErrStopped.
	if err := p.Dispatch(fleet.DeviceID(0), setEvent(1)); err != fleet.ErrStopped {
		t.Fatalf("Dispatch after stop = %v", err)
	}
	if err := p.Advance(sim.Millisecond); err != fleet.ErrStopped {
		t.Fatalf("Advance after stop = %v", err)
	}
	if err := p.AddDevice("late", 1, fleet.LightFactory(0)); err != fleet.ErrStopped {
		t.Fatalf("AddDevice after stop = %v", err)
	}
}

func TestRollupSurvivesStop(t *testing.T) {
	p := newLightPool(t, 2, 8)
	for i := 0; i < 3; i++ {
		if err := p.Broadcast(setEvent(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	before := p.Rollup()
	p.Stop()
	after := p.Rollup()
	if after.Monitor != before.Monitor {
		t.Fatalf("monitor counters lost at Stop: before %+v, after %+v", before.Monitor, after.Monitor)
	}
	if after.Devices != 8 || after.Dispatched != before.Dispatched {
		t.Fatalf("rollup after stop = %+v, want devices/dispatched preserved from %+v", after, before)
	}
	if p.Stats() != before.Monitor {
		t.Fatalf("Stats() after stop = %+v, want %+v", p.Stats(), before.Monitor)
	}
}

// Quarantine takes a device out of dispatch: targeted events and
// broadcasts both skip it (counted separately from unknown-device drops),
// its monitor counters freeze, and a comparator reset re-arms detection.
func TestQuarantineStopsDispatches(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 2})
	defer pool.Stop()
	for i := 0; i < 2; i++ {
		if err := pool.AddDevice(fleet.DeviceID(i), int64(i)+1, fleet.LightFactory(0)); err != nil {
			t.Fatal(err)
		}
	}
	in := func() event.Event {
		return event.Event{Kind: event.Input, Name: "set", Source: "t"}.With("x", 1)
	}
	if err := pool.Dispatch(fleet.DeviceID(0), in()); err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	before := pool.DeviceStats()[fleet.DeviceID(0)]

	found, err := pool.QuarantineDevice(fleet.DeviceID(0))
	if err != nil || !found {
		t.Fatalf("quarantine: found=%v err=%v", found, err)
	}
	if found, err := pool.QuarantineDevice("ghost"); err != nil || found {
		t.Fatalf("quarantine ghost: found=%v err=%v", found, err)
	}

	// Targeted dispatch and broadcast: the quarantined device is skipped.
	if err := pool.Dispatch(fleet.DeviceID(0), in()); err != nil {
		t.Fatal(err)
	}
	if err := pool.Broadcast(in()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{fleet.DeviceID(0), fleet.DeviceID(1)} {
		if err := pool.Dispatch(id, in()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	ro := pool.Rollup()
	if ro.Quarantined != 3 {
		t.Fatalf("quarantined drops = %d, want 3", ro.Quarantined)
	}
	if ro.Dropped != 0 {
		t.Fatalf("unknown-device drops = %d, want 0", ro.Dropped)
	}
	// 1 pre-quarantine targeted + broadcast and targeted to the healthy device.
	if ro.Dispatched != 3 {
		t.Fatalf("dispatched = %d, want 3", ro.Dispatched)
	}
	if after := pool.DeviceStats()[fleet.DeviceID(0)]; after != before {
		t.Fatalf("quarantined device's monitor moved: %+v -> %+v", before, after)
	}
}

// ResetDevice clears latched comparator episodes so a persistent deviation
// is reported again — the controller's re-arm primitive.
func TestResetDeviceReArmsComparator(t *testing.T) {
	pool := fleet.NewPool(fleet.Options{Shards: 1})
	defer pool.Stop()
	// Every device faulty: the echo deviates from the commanded level.
	if err := pool.AddDevice("dev", 1, fleet.LightFactory(1)); err != nil {
		t.Fatal(err)
	}
	var reports atomic.Uint64
	pool.OnReport(func(string, wire.ErrorReport) { reports.Add(1) })
	in := func() event.Event {
		return event.Event{Kind: event.Input, Name: "set", Source: "t"}.With("x", 0)
	}
	// Two deviating comparisons cross the tolerance; the episode latches.
	for i := 0; i < 4; i++ {
		if err := pool.Dispatch("dev", in()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reports.Load(); got != 1 {
		t.Fatalf("reports before reset = %d, want 1 (latched episode)", got)
	}
	if found, err := pool.ResetDevice("dev"); err != nil || !found {
		t.Fatalf("reset: found=%v err=%v", found, err)
	}
	for i := 0; i < 4; i++ {
		if err := pool.Dispatch("dev", in()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reports.Load(); got != 2 {
		t.Fatalf("reports after reset = %d, want 2 (fresh episode)", got)
	}
	if found, err := pool.ResetDevice("ghost"); err != nil || found {
		t.Fatalf("reset ghost: found=%v err=%v", found, err)
	}
}

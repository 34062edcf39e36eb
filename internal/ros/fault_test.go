package ros_test

import (
	"testing"
	"time"

	"inca/internal/fault"
	"inca/internal/ros"
)

// TestTransportDrop: with the drop site at rate 1.0 no delivery arrives.
func TestTransportDrop(t *testing.T) {
	c := ros.NewCore()
	c.Faults = fault.New(1)
	c.Faults.SetRate(fault.SiteMsgDrop, 1.0)
	pub := c.Node("a").Advertise("t")
	got := 0
	c.Node("b").Subscribe("t", func(ros.Message) { got++ })
	_ = c.At(time.Millisecond, func() { pub.Publish(1) })
	_ = c.At(2*time.Millisecond, func() { pub.Publish(2) })
	c.Run(time.Second)
	if got != 0 {
		t.Fatalf("%d deliveries despite 100%% drop", got)
	}
	if c.Fault.Dropped != 2 {
		t.Fatalf("dropped counter %d, want 2", c.Fault.Dropped)
	}
}

// TestTransportDelayAndDup: delayed deliveries arrive late; duplicated
// deliveries arrive twice.
func TestTransportDelayAndDup(t *testing.T) {
	c := ros.NewCore()
	c.Faults = fault.New(1)
	c.Faults.MsgDelay = 3 * time.Millisecond
	c.Faults.SetRate(fault.SiteMsgDelay, 1.0)
	c.Faults.SetRate(fault.SiteMsgDup, 1.0)
	pub := c.Node("a").Advertise("t")
	var stamps []ros.Time
	c.Node("b").Subscribe("t", func(ros.Message) { stamps = append(stamps, c.Now()) })
	_ = c.At(time.Millisecond, func() { pub.Publish("x") })
	c.Run(time.Second)
	if len(stamps) != 2 {
		t.Fatalf("%d deliveries, want 2 (duplicated)", len(stamps))
	}
	want := time.Millisecond + c.Delay + 3*time.Millisecond
	if stamps[0] != want || stamps[1] != want {
		t.Fatalf("deliveries at %v, want both at %v", stamps, want)
	}
	if c.Fault.Delayed != 1 || c.Fault.Duplicated != 1 {
		t.Fatalf("counters %+v, want 1 delayed / 1 duplicated", c.Fault)
	}
}

// TestTransportZeroRatesUnchanged: an armed injector with zero rates must
// deliver exactly like an unarmed core.
func TestTransportZeroRatesUnchanged(t *testing.T) {
	run := func(armed bool) []ros.Time {
		c := ros.NewCore()
		if armed {
			c.Faults = fault.New(9)
		}
		pub := c.Node("a").Advertise("t")
		var stamps []ros.Time
		c.Node("b").Subscribe("t", func(ros.Message) { stamps = append(stamps, c.Now()) })
		for i := 1; i <= 3; i++ {
			i := i
			_ = c.At(time.Duration(i)*time.Millisecond, func() { pub.Publish(i) })
		}
		c.Run(time.Second)
		return stamps
	}
	ref, got := run(false), run(true)
	if len(ref) != len(got) {
		t.Fatalf("delivery counts differ: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("delivery %d at %v with injector, %v without", i, got[i], ref[i])
		}
	}
}

// TestTimerRejectsNonPositivePeriod (was a panic; now a returned error).
func TestTimerRejectsNonPositivePeriod(t *testing.T) {
	c := ros.NewCore()
	n := c.Node("tick")
	if _, err := n.Timer(0, func() {}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := n.Timer(-time.Millisecond, func() {}); err == nil {
		t.Error("negative period accepted")
	}
}

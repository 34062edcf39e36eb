package ros_test

import (
	"testing"
	"time"

	"inca/internal/ros"
)

func TestPubSubDelivery(t *testing.T) {
	c := ros.NewCore()
	n1 := c.Node("talker")
	n2 := c.Node("listener")
	pub := n1.Advertise("chat")
	var got []int
	var stamps []ros.Time
	n2.Subscribe("chat", func(m ros.Message) {
		got = append(got, m.Data.(int))
		stamps = append(stamps, c.Now())
		if m.Header.From != "talker" {
			t.Errorf("from = %q", m.Header.From)
		}
	})
	_ = c.At(1*time.Millisecond, func() { pub.Publish(1) })
	_ = c.At(2*time.Millisecond, func() { pub.Publish(2) })
	c.Run(time.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
	for i, s := range stamps {
		want := time.Duration(i+1)*time.Millisecond + c.Delay
		if s != want {
			t.Errorf("delivery %d at %v, want %v", i, s, want)
		}
	}
}

func TestFanout(t *testing.T) {
	c := ros.NewCore()
	pub := c.Node("a").Advertise("t")
	var n1, n2 int
	c.Node("b").Subscribe("t", func(ros.Message) { n1++ })
	c.Node("c").Subscribe("t", func(ros.Message) { n2++ })
	_ = c.At(time.Millisecond, func() { pub.Publish("x") })
	_ = c.At(2*time.Millisecond, func() { pub.Publish("y") })
	c.Run(time.Second)
	if n1 != 2 || n2 != 2 {
		t.Fatalf("n1=%d n2=%d, want 2,2", n1, n2)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		c := ros.NewCore()
		var order []int
		// Same timestamp: insertion order must hold.
		_ = c.At(time.Millisecond, func() { order = append(order, 1) })
		_ = c.At(time.Millisecond, func() { order = append(order, 2) })
		_ = c.At(500*time.Microsecond, func() { order = append(order, 0) })
		c.Run(time.Second)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("order %v / %v", a, b)
		}
	}
}

func TestTimer(t *testing.T) {
	c := ros.NewCore()
	n := c.Node("tick")
	count := 0
	var stop func()
	stop, err := n.Timer(10*time.Millisecond, func() {
		count++
		if count == 5 {
			stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if count != 5 {
		t.Fatalf("timer fired %d times, want 5", count)
	}
	if c.Now() != time.Second {
		t.Fatalf("core time %v, want 1s", c.Now())
	}
}

func TestHorizonAndPastScheduling(t *testing.T) {
	c := ros.NewCore()
	ran := 0
	_ = c.At(time.Millisecond, func() { ran++ })
	_ = c.At(2*time.Millisecond, func() { ran++ })
	c.Run(1500 * time.Microsecond)
	if ran != 1 || c.Now() != 1500*time.Microsecond {
		t.Fatalf("horizon did not halt processing (ran=%d, now=%v)", ran, c.Now())
	}
	if err := c.At(0, func() {}); err == nil {
		t.Fatal("scheduling in the past must error")
	}
	// Resume processes the remaining event.
	c.Run(time.Second)
	if ran != 2 {
		t.Fatalf("resume did not process remaining events (ran=%d)", ran)
	}
}

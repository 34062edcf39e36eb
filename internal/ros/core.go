// Package ros is a minimal, deterministic ROS-like middleware: named nodes
// exchange messages over topics, with timers and scheduled callbacks, all
// driven by a discrete-event core over virtual time.
//
// The paper relies on ROS for exactly one property: independently developed
// components issue accelerator requests without coordinating with each
// other. This package reproduces that property while keeping simulations
// reproducible — callbacks execute sequentially in virtual-timestamp order,
// so a DSLAM run is a pure function of its inputs.
package ros

import (
	"container/heap"
	"fmt"
	"time"

	"inca/internal/fault"
)

// Time is virtual time since simulation start.
type Time = time.Duration

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MsgFaultStats counts transport faults the middleware injected.
type MsgFaultStats struct {
	Dropped    int // deliveries discarded
	Delayed    int // deliveries given extra transport latency
	Duplicated int // deliveries made twice
}

// Core is the middleware instance: event queue, topic registry, node set.
type Core struct {
	now    Time
	seq    uint64
	events eventHeap
	topics map[string]*topic
	nodes  map[string]*Node

	// Delay is the simulated transport latency applied to every publish.
	Delay Time

	// Faults, when non-nil, arms per-delivery message faults (drop, delay,
	// duplication) — the lossy-DDS half of the chaos harness. Nil keeps the
	// publish path untouched.
	Faults *fault.Injector
	// Fault counts the transport faults injected so far.
	Fault MsgFaultStats
}

// NewCore creates an empty middleware instance.
func NewCore() *Core {
	return &Core{
		topics: make(map[string]*topic),
		nodes:  make(map[string]*Node),
		Delay:  50 * time.Microsecond,
	}
}

// Now returns the current virtual time.
func (c *Core) Now() Time { return c.now }

// Node registers (or returns) a named node.
func (c *Core) Node(name string) *Node {
	if n, ok := c.nodes[name]; ok {
		return n
	}
	n := &Node{core: c, name: name}
	c.nodes[name] = n
	return n
}

// At schedules fn at absolute virtual time t (>= Now).
func (c *Core) At(t Time, fn func()) error {
	if t < c.now {
		return fmt.Errorf("ros: scheduling at %v before now %v", t, c.now)
	}
	c.seq++
	heap.Push(&c.events, event{at: t, seq: c.seq, fn: fn})
	return nil
}

// After schedules fn after a relative delay.
func (c *Core) After(d Time, fn func()) {
	// d >= 0 is guaranteed to be in the future.
	if d < 0 {
		d = 0
	}
	_ = c.At(c.now+d, fn)
}

// Run processes events in timestamp order until the horizon (inclusive). It
// returns the number of events processed.
func (c *Core) Run(until Time) int {
	n := 0
	for len(c.events) > 0 {
		if c.events[0].at > until {
			break
		}
		ev := heap.Pop(&c.events).(event)
		c.now = ev.at
		ev.fn()
		n++
	}
	if c.now < until {
		c.now = until
	}
	return n
}

// topic is a named channel with its subscriber list.
type topic struct {
	name string
	subs []*Subscription
	seq  int
}

func (c *Core) topic(name string) *topic {
	if t, ok := c.topics[name]; ok {
		return t
	}
	t := &topic{name: name}
	c.topics[name] = t
	return t
}

// Header carries per-message metadata, mirroring ROS message headers.
type Header struct {
	Stamp Time
	Seq   int
	From  string
}

// Message is a published payload with its header.
type Message struct {
	Header Header
	Data   interface{}
}

// Subscription is one node's registration on a topic.
type Subscription struct {
	topic   *topic
	node    *Node
	cb      func(Message)
	dropped int
}

package ros

import (
	"fmt"

	"inca/internal/fault"
)

// Node is an independently-authored component, the unit of modularity ROS
// provides robot developers.
type Node struct {
	core *Core
	name string
}

// Name returns the node's registered name.
func (n *Node) Name() string { return n.name }

// Publisher sends messages on one topic.
type Publisher struct {
	node  *Node
	topic *topic
}

// Advertise creates a publisher for the topic.
func (n *Node) Advertise(topicName string) *Publisher {
	return &Publisher{node: n, topic: n.core.topic(topicName)}
}

// Publish stamps and delivers the payload to every subscriber after
// the core's transport delay. With Core.Faults armed, each delivery may
// independently be dropped, delayed, or duplicated (lossy transport).
func (p *Publisher) Publish(data interface{}) {
	c := p.node.core
	p.topic.seq++
	msg := Message{
		Header: Header{Stamp: c.now, Seq: p.topic.seq, From: p.node.name},
		Data:   data,
	}
	for _, s := range p.topic.subs {
		s := s
		deliver := func() { s.cb(msg) }
		if c.Faults == nil {
			c.After(c.Delay, deliver)
			continue
		}
		if c.Faults.Hit(fault.SiteMsgDrop) {
			c.Fault.Dropped++
			s.dropped++
			continue
		}
		delay := c.Delay
		if c.Faults.Hit(fault.SiteMsgDelay) {
			c.Fault.Delayed++
			delay += c.Faults.MsgDelay
		}
		c.After(delay, deliver)
		if c.Faults.Hit(fault.SiteMsgDup) {
			c.Fault.Duplicated++
			c.After(delay, deliver)
		}
	}
}

// Subscribe registers a callback on the topic. Callbacks run in virtual-
// timestamp order on the single middleware thread.
func (n *Node) Subscribe(topicName string, cb func(Message)) *Subscription {
	t := n.core.topic(topicName)
	s := &Subscription{topic: t, node: n, cb: cb}
	t.subs = append(t.subs, s)
	return s
}

// Timer invokes cb every period, starting one period from now, until the
// returned stop function is called. A non-positive period is rejected (it
// would spin the event loop at the current timestamp forever).
func (n *Node) Timer(period Time, cb func()) (stop func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("ros: node %s timer with non-positive period %v", n.name, period)
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		cb()
		if !stopped {
			n.core.After(period, tick)
		}
	}
	n.core.After(period, tick)
	return func() { stopped = true }, nil
}

// Every is like Timer but fires the first callback immediately at the
// current time plus the transport delay.
func (n *Node) Every(period Time, cb func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		cb()
		if !stopped {
			n.core.After(period, tick)
		}
	}
	n.core.After(0, tick)
	return func() { stopped = true }
}

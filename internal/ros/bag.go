package ros

import (
	"fmt"
	"sort"
)

// ReplayError locates a replay failure within a bag: which record, on
// which topic, and why scheduling it failed.
type ReplayError struct {
	RecordIndex int
	Topic       string
	Err         error
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("ros: replaying bag record %d on %s: %v", e.RecordIndex, e.Topic, e.Err)
}

func (e *ReplayError) Unwrap() error { return e.Err }

// Bag records messages crossing the middleware — the rosbag equivalent.
// A recorded bag can be replayed into a fresh Core (same topics, same
// virtual timestamps), which turns any live data source into a reproducible
// fixture: a camera trace recorded once can drive FE/VO/PR pipelines in
// tests without re-simulating the world.
type Bag struct {
	Records []BagRecord
	subs    []*Subscription
}

// BagRecord is one captured message.
type BagRecord struct {
	Topic string
	Msg   Message
}

// Record subscribes the bag to the topics (all registered topics when none
// are given) on the core. Recording starts immediately; call Stop to detach.
func Record(c *Core, topics ...string) *Bag {
	b := &Bag{}
	if len(topics) == 0 {
		for name := range c.topics {
			topics = append(topics, name)
		}
		sort.Strings(topics)
	}
	rec := c.Node("_bag_recorder")
	for _, topic := range topics {
		topic := topic
		s := rec.Subscribe(topic, func(m Message) {
			b.Records = append(b.Records, BagRecord{Topic: topic, Msg: m})
		})
		b.subs = append(b.subs, s)
	}
	return b
}

// Stop detaches the recorder from every topic.
func (b *Bag) Stop() {
	for _, s := range b.subs {
		s.Unsubscribe()
	}
	b.subs = nil
}

// Len returns the number of captured messages.
func (b *Bag) Len() int { return len(b.Records) }

// Topics returns the distinct topics present in the bag, sorted.
func (b *Bag) Topics() []string {
	seen := map[string]bool{}
	for _, r := range b.Records {
		seen[r.Topic] = true
	}
	var out []string
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Replay schedules every recorded message for publication on the target
// core at its original stamp (which must not be in the target's past). The
// messages are re-published through a replay node, so subscribers see the
// usual transport delay on top of the original stamp. A failure mid-bag is
// reported as a *ReplayError naming the offending record; earlier records
// stay scheduled.
func (b *Bag) Replay(c *Core) error {
	pub := c.Node("_bag_replayer")
	pubs := map[string]*Publisher{}
	for _, t := range b.Topics() {
		pubs[t] = pub.Advertise(t)
	}
	for i, r := range b.Records {
		r := r
		// The recorded header stamp is the original publish time; the bag
		// captured it one delay later. Re-publish at the original stamp.
		at := r.Msg.Header.Stamp
		if at < c.Now() {
			return &ReplayError{RecordIndex: i, Topic: r.Topic,
				Err: fmt.Errorf("stamp %v is in the target core's past (%v)", at, c.Now())}
		}
		if err := c.At(at, func() { pubs[r.Topic].Publish(r.Msg.Data) }); err != nil {
			return &ReplayError{RecordIndex: i, Topic: r.Topic, Err: err}
		}
	}
	return nil
}

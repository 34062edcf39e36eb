// Package fault is a seeded, deterministic fault injector for the INCA
// stack. Every layer of the simulation exposes named fault sites (DDR
// bit-flips on interrupt backups, accelerator instruction stalls and hangs,
// lost interrupt requests, ROS message drop/delay/duplication); an Injector
// decides, reproducibly, which operations fail.
//
// Determinism: each draw is a pure function of (seed, site, per-site draw
// index). Two runs with the same seed, rates, and workload inject exactly
// the same faults, so a chaos run is as replayable as a fault-free one —
// the property the repo's determinism tests rely on.
//
// Cost when disabled: the hot paths guard every probe with a nil check
// (`if u.Faults != nil`), so a nil Injector is zero-cost — verified by
// BenchmarkEngineConv parity (DESIGN.md §9).
package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Site names one fault-injection point in the stack.
type Site string

// Fault sites, by layer.
const (
	// SiteBackup flips a bit in the DDR backup blob a preemption just wrote
	// (Vir_SAVE region or CPU-like snapshot) while the victim is parked.
	SiteBackup Site = "iau.backup.bitflip"
	// SiteStall makes one accelerator instruction take StallCycles extra
	// cycles (DDR contention, refresh collision).
	SiteStall Site = "accel.instr.stall"
	// SiteHang makes one accelerator instruction never complete; only the
	// IAU watchdog can recover the slot.
	SiteHang Site = "accel.instr.hang"
	// SiteIRQLost drops the preemption request at a legal switch boundary;
	// the victim runs on to the next boundary before the IAU retries.
	SiteIRQLost Site = "iau.irq.lost"
	// SiteMsgDrop discards one ROS message delivery.
	SiteMsgDrop Site = "ros.msg.drop"
	// SiteMsgDelay adds MsgDelay to one ROS message delivery.
	SiteMsgDelay Site = "ros.msg.delay"
	// SiteMsgDup delivers one ROS message twice.
	SiteMsgDup Site = "ros.msg.dup"
)

// SiteStats counts one site's activity.
type SiteStats struct {
	Site  Site
	Draws uint64 // probes taken at the site
	Hits  uint64 // probes that injected a fault
}

// Report summarises an injector's activity.
type Report struct {
	Seed  uint64
	Sites []SiteStats // sites with at least one draw, sorted by name
}

func (r Report) String() string {
	s := fmt.Sprintf("fault injector (seed %d):", r.Seed)
	if len(r.Sites) == 0 {
		return s + " no draws"
	}
	for _, st := range r.Sites {
		s += fmt.Sprintf("\n  %-22s %d/%d injected", st.Site, st.Hits, st.Draws)
	}
	return s
}

// Injector draws deterministic fault decisions for a set of sites. The
// zero value injects nothing; construct with New and arm sites with
// SetRate. Safe for concurrent use (multi-core dispatchers drive several
// IAUs against one injector).
type Injector struct {
	// StallCycles is the extra latency of one SiteStall hit.
	StallCycles uint64
	// MsgDelay is the extra transport latency of one SiteMsgDelay hit.
	MsgDelay time.Duration

	mu    sync.Mutex
	seed  uint64
	rates map[Site]float64
	draws map[Site]uint64
	hits  map[Site]uint64
}

// New creates an injector with every site disarmed (rate 0).
func New(seed uint64) *Injector {
	return &Injector{
		seed:        seed,
		StallCycles: 4096,
		MsgDelay:    2 * time.Millisecond,
		rates:       make(map[Site]float64),
		draws:       make(map[Site]uint64),
		hits:        make(map[Site]uint64),
	}
}

// Seed returns the injector's seed.
func (j *Injector) Seed() uint64 { return j.seed }

// SetRate arms a site with a per-probe fault probability in [0,1].
func (j *Injector) SetRate(site Site, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	j.mu.Lock()
	j.rates[site] = rate
	j.mu.Unlock()
	return j
}

// Hit draws the site's next decision: true means inject a fault here.
// Consecutive calls at one site advance its private sequence, so the
// decision stream is independent of every other site's probe order.
func (j *Injector) Hit(site Site) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	rate := j.rates[site]
	n := j.draws[site]
	j.draws[site] = n + 1
	if rate <= 0 {
		return false
	}
	hit := unitFloat(j.seed, site, n) < rate
	if hit {
		j.hits[site]++
	}
	return hit
}

// Pick returns a deterministic value in [0,n) tied to the site's last hit
// (bit index to flip, duplicate ordering, ...). n must be > 0.
func (j *Injector) Pick(site Site, n uint64) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Key on the hit count so each injected fault picks afresh.
	return mix(j.seed^siteKey(site)^0x9e3779b97f4a7c15, j.hits[site]) % n
}

// Report snapshots per-site draw/hit counts.
func (j *Injector) Report() Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := Report{Seed: j.seed}
	for site, d := range j.draws {
		r.Sites = append(r.Sites, SiteStats{Site: site, Draws: d, Hits: j.hits[site]})
	}
	sort.Slice(r.Sites, func(a, b int) bool { return r.Sites[a].Site < r.Sites[b].Site })
	return r
}

// ChildSeed derives a per-component seed from a parent seed and a
// component id (splitmix64 over the pair). A cluster dispatcher gives
// each engine's injector ChildSeed(seed, engineID) so the engines draw
// independent, reproducible fault streams from one top-level seed.
func ChildSeed(seed, id uint64) uint64 {
	return mix(seed^0xd6e8feb86659fd93, id)
}

// siteKey hashes a site name (FNV-1a).
func siteKey(site Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// mix is splitmix64: a bijective avalanche over (key, index).
func mix(key, n uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFloat maps (seed, site, draw index) to a uniform float64 in [0,1).
func unitFloat(seed uint64, site Site, n uint64) float64 {
	return float64(mix(seed^siteKey(site), n)>>11) / float64(1<<53)
}

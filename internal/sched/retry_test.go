package sched_test

import (
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

// TestShedAfterRetriesExhausted pins the exact accounting when every attempt
// hangs: a one-shot task with MaxRetries=N is killed N+1 times, retried N
// times, shed exactly once, and never completes — and the per-task and
// aggregate fault reports agree on all of it.
func TestShedAfterRetriesExhausted(t *testing.T) {
	cfg := accel.Big()
	p := compileNet(t, cfg, model.NewTinyCNN(3, 16, 16), true)

	for _, retries := range []int{0, 2} {
		inj := fault.New(7)
		inj.SetRate(fault.SiteHang, 1.0) // every attempt hangs
		specs := []sched.TaskSpec{{
			Name: "T", Slot: 1, Prog: p,
			MaxRetries: retries, RetryBackoff: 5 * time.Microsecond,
		}}
		res, err := sched.Run(cfg, iau.PolicyVI, specs, 50*time.Millisecond, sched.WithFaults(inj))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Tasks["T"]
		if st.Completed != 0 {
			t.Errorf("MaxRetries=%d: %d completions with a certain hang", retries, st.Completed)
		}
		if st.Retried != retries {
			t.Errorf("MaxRetries=%d: retried %d times, want exactly %d", retries, st.Retried, retries)
		}
		if st.Shed != 1 {
			t.Errorf("MaxRetries=%d: shed %d iterations, want exactly 1", retries, st.Shed)
		}
		if got, want := res.Faults.WatchdogKills, retries+1; got != want {
			t.Errorf("MaxRetries=%d: %d watchdog kills, want %d (initial + retries)", retries, got, want)
		}
		if res.Faults.Retries != st.Retried || res.Faults.Shed != st.Shed {
			t.Errorf("MaxRetries=%d: aggregate retries/shed %d/%d != task %d/%d",
				retries, res.Faults.Retries, res.Faults.Shed, st.Retried, st.Shed)
		}
	}
}

// TestRetryBackoffOrdering verifies the linear-backoff law: attempt k is
// resubmitted at kill-time + (k+1)*backoff, so with a certain hang the gap
// between consecutive watchdog kills grows by exactly one backoff per
// attempt.
func TestRetryBackoffOrdering(t *testing.T) {
	cfg := accel.Big()
	p := compileNet(t, cfg, model.NewTinyCNN(3, 16, 16), true)

	backoff := 20 * time.Microsecond
	inj := fault.New(3)
	inj.SetRate(fault.SiteHang, 1.0)
	specs := []sched.TaskSpec{{
		Name: "T", Slot: 1, Prog: p,
		MaxRetries: 3, RetryBackoff: backoff,
	}}
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 100*time.Millisecond, sched.WithFaults(inj), sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	var kills []trace.Event
	for _, e := range res.Tracer.Events() {
		if e.Kind == trace.KindKill {
			kills = append(kills, e)
		}
	}
	if len(kills) != 4 {
		t.Fatalf("%d watchdog kills, want 4 (initial + 3 retries)", len(kills))
	}
	bo := cfg.SecondsToCycles(backoff.Seconds())
	var gaps []uint64
	for i := 1; i < len(kills); i++ {
		if kills[i].Cycle <= kills[i-1].Cycle {
			t.Fatalf("kill cycles not increasing: %d then %d", kills[i-1].Cycle, kills[i].Cycle)
		}
		gaps = append(gaps, kills[i].Cycle-kills[i-1].Cycle)
	}
	// gap[k] - gap[k-1] == backoff: the deterministic kill latency cancels,
	// leaving only the linear term (k+1)*backoff - k*backoff.
	for i := 1; i < len(gaps); i++ {
		if gaps[i]-gaps[i-1] != bo {
			t.Errorf("kill gap %d grew by %d cycles, want exactly one backoff (%d); gaps=%v",
				i, gaps[i]-gaps[i-1], bo, gaps)
		}
	}
	// And the absolute law on the first retry: second kill at least one
	// backoff after the first.
	if gaps[0] < bo {
		t.Errorf("first retry gap %d cycles < backoff %d", gaps[0], bo)
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"versadep/internal/replication"
)

// cyclePlan is one crash/rejoin cycle's schedule, as offsets into the
// measured window.
type cyclePlan struct {
	crashAt  time.Duration
	rejoinAt time.Duration
	endAt    time.Duration
}

// crashRecord is what one executed cycle observed directly; the rest of
// its grade comes from the request samples once the load has drained.
type crashRecord struct {
	at, until time.Time
	// joinStart is when the replacement was started, joined when it had
	// its state (zero if it never did).
	joinStart, joined time.Time
}

// planCycles splits the window into equal cycles. Each crashes the primary
// early in the cycle at a seed-jittered instant — so the crash does not
// keep hitting the same phase of the heartbeat and resend timers — starts
// the replacement up to a second later, and leaves the rest of the cycle
// in steady state.
func planCycles(window time.Duration, rng *rand.Rand) []cyclePlan {
	n := max(1, int(window.Seconds()/cycleSeconds+0.5))
	length := window / time.Duration(n)
	plan := make([]cyclePlan, n)
	for i := range plan {
		start := length * time.Duration(i)
		jitter := time.Duration(rng.Int63n(int64(length / 10)))
		plan[i].crashAt = start + length*15/100 + jitter
		plan[i].rejoinAt = plan[i].crashAt + min(time.Second, length/3)
		plan[i].endAt = start + length
	}
	return plan
}

// rejoinDeadline bounds one state transfer. A transfer normally takes tens
// of milliseconds; one that has not completed by now is reported as a
// violation rather than waited on.
const rejoinDeadline = 8 * time.Second

// runCycles executes the plan against the running cluster.
func runCycles(cl *cluster, begin time.Time, plan []cyclePlan, res *roundResult) []crashRecord {
	var out []crashRecord
	for i, p := range plan {
		time.Sleep(time.Until(begin.Add(p.crashAt)))
		rec := crashRecord{at: cl.crashPrimary(), until: begin.Add(p.endAt)}

		time.Sleep(time.Until(begin.Add(p.rejoinAt)))
		rec.joinStart = time.Now()
		if err := cl.startReplica(nil); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("cycle %d: replacement failed to start: %v", i+1, err))
			return append(out, rec)
		}
		joiner := cl.live()[replicas-1].addr
		done, ok := waitNotice(cl.notices, rec.joinStart, joiner, rejoinDeadline)
		if !ok {
			res.Violations = append(res.Violations, fmt.Sprintf("cycle %d: %s did not finish its state transfer within %v",
				i+1, joiner, rejoinDeadline))
			return append(out, rec)
		}
		rec.joined = done
		out = append(out, rec)
	}
	return out
}

// waitNotice polls for addr's completed state transfer.
func waitNotice(l *noticeLog, since time.Time, addr string, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if at, ok := l.first(since, addr, replication.NoticeTransfer); ok {
			return at, true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(time.Millisecond)
	}
}

// gradeCycles turns each crash into its outage and the outage's three
// consecutive parts:
//
//	crash ─ detect ─▶ first survivor installs the view without the primary
//	      ─ promote ─▶ the new primary reports its failover complete
//	      ─ resend ─▶ first reply to a request that was due after the crash
func gradeCycles(cl *cluster, crashes []crashRecord, samples []sample, res *roundResult) []cycleResult {
	var out []cycleResult
	for i, c := range crashes {
		if c.joined.IsZero() {
			continue // runCycles has reported why
		}
		var firstReply time.Time
		for _, s := range samples {
			if s.due.Before(c.at) || !s.due.Before(c.until) {
				continue
			}
			if firstReply.IsZero() || s.done.Before(firstReply) {
				firstReply = s.done
			}
		}
		detected, ok1 := cl.notices.first(c.at, "", replication.NoticeView, replication.NoticeFailover)
		promoted, ok2 := cl.notices.first(c.at, "", replication.NoticeFailover)
		if firstReply.IsZero() || !ok1 || !ok2 || promoted.After(firstReply) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"cycle %d: no ordered crash→view→failover→reply sequence (view seen %v, failover seen %v, reply seen %v)",
				i+1, ok1, ok2, !firstReply.IsZero()))
			continue
		}
		out = append(out, cycleResult{
			OutageMs:  ms(firstReply.Sub(c.at)),
			DetectMs:  ms(detected.Sub(c.at)),
			PromoteMs: ms(promoted.Sub(detected)),
			ResendMs:  ms(firstReply.Sub(promoted)),
			RejoinMs:  ms(c.joined.Sub(c.joinStart)),
		})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

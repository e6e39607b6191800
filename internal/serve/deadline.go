package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's remaining deadline budget in integer
// milliseconds. It is relative, not absolute, so it survives clock skew
// between client, router and replica: each hop reads the remaining budget,
// spends some of it, and stamps the rest onto the next hop.
//
// The contract down the serving stack:
//
//   - clients (or the router's caller) set it to their end-to-end budget;
//   - the router divides the remaining budget across its ring-walk attempts
//     and stamps each backend request with that attempt's share;
//   - serve admission refuses (503) any request whose remaining budget is
//     already spent or cannot cover the lane's estimated wait — the
//     substrate never spends cycles on an answer nobody will be there to
//     read;
//   - once admitted, the budget becomes the request context's deadline, so
//     an overrun cancels mid-batch delivery exactly like a client timeout.
const DeadlineHeader = "X-Rapidnn-Deadline-Ms"

// ParseDeadline extracts the remaining deadline budget from a request.
// Absent header: ok=false. A malformed value is an error (the client is
// confused; guessing would be worse). Zero and negative values parse fine —
// they mean "already out of time" and admission rejects them.
func ParseDeadline(r *http.Request) (budget time.Duration, ok bool, err error) {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("serve: malformed %s %q: %w", DeadlineHeader, v, err)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}

// FormatDeadline renders a remaining budget for the header, rounding down
// (an optimistic round-up would promise time that does not exist). Budgets
// under one millisecond render as 0 — "already expired" to the next hop.
func FormatDeadline(budget time.Duration) string {
	ms := budget.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	return strconv.FormatInt(ms, 10)
}

// deadlineVerdict says whether admission should refuse a budget outright,
// and why — the reason becomes a metric label and part of the 503 body.
type deadlineVerdict struct {
	reject bool
	reason string
}

// checkDeadline is the admission gate's pure core: given a request's
// remaining budget and the lane's observable state, decide whether the
// request can plausibly be answered in time. ahead is the rows the request
// would wait behind: those queued plus those in the executing batch.
//
//   - budget <= 0: the deadline passed before admission;
//   - work ahead: with a primed drain-rate estimate, ahead/rate is the
//     expected wait; a budget below it would expire before its turn.
//
// Rejecting at admission turns a guaranteed 504-after-work into an
// immediate, costless 503 the client can retry elsewhere.
func checkDeadline(budget time.Duration, ahead int, drainPerSec float64) deadlineVerdict {
	switch {
	case budget <= 0:
		return deadlineVerdict{reject: true, reason: "expired"}
	case ahead > 0 && drainPerSec > 0:
		wait := time.Duration(float64(ahead) / drainPerSec * float64(time.Second))
		if wait > budget {
			return deadlineVerdict{reject: true, reason: "queue_wait"}
		}
	}
	return deadlineVerdict{}
}

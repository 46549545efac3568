// bucket.go implements the token bucket under the limiter: continuous
// refill on explicit (virtual) timestamps, lazy — no background
// process — so a deployment with thousands of idle tenants costs
// nothing.

package traffic

import (
	"time"
)

// bucket is one tenant's token bucket. Tokens refill continuously at
// rate per second up to burst; each admitted operation takes one
// token. The bucket stores the timestamp of its last refill and tops
// up lazily on every take, so correctness depends only on the
// monotonic virtual clock, not on any polling cadence.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration // virtual time of the last refill
}

// newBucket returns a full bucket as of now.
func newBucket(rate, burst float64, now time.Duration) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill tops the bucket up for the time elapsed since the last
// refill. A non-advancing (or, defensively, rewinding) clock adds
// nothing.
func (b *bucket) refill(now time.Duration) {
	if now <= b.last {
		return
	}
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// take attempts to remove one token as of now. On success it returns
// ok. On failure the bucket is left untouched (tokens never go
// negative) and retryAfter is the time until the bucket will next
// hold a full token — the hint surfaced through OverloadedError.
func (b *bucket) take(now time.Duration) (ok bool, retryAfter time.Duration) {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if b.rate <= 0 {
		return false, time.Hour // rate 0: effectively never
	}
	need := 1 - b.tokens
	retryAfter = time.Duration(need / b.rate * float64(time.Second))
	if retryAfter <= 0 {
		retryAfter = time.Nanosecond
	}
	return false, retryAfter
}

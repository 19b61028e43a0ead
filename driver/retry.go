package driver

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// RetryPolicy shapes the driver's automatic retries: exponential
// backoff with jitter, capped per attempt and bounded by a total time
// budget. The context deadline always wins over the budget.
//
// Only safe operations retry. Queries, prepares and pings are
// idempotent by construction; appends retry only when they travel under
// an idempotency key (Connector.Append generates one per call), so a
// replayed request can never double-apply rows. Typed server errors
// retry only when the server marked them transient (quota rejections,
// queue timeouts, draining) — and then the server's Retry-After advice
// stretches the backoff.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, first included (default 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 1s).
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2).
	Jitter float64
	// Budget bounds the total time spent across attempts and sleeps
	// (default 5s). Zero means "use the default"; retries never outlive
	// the request context either way.
	Budget time.Duration
	// Disabled turns the retry layer off: every error surfaces on the
	// first attempt, and subscriptions do not auto-resume.
	Disabled bool
}

func defaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Budget:      5 * time.Second,
	}
}

// parseRetryDSN folds retry DSN parameters into a policy: retry=off,
// retry_attempts, retry_base_ms, retry_max_ms, retry_budget_ms.
func parseRetryDSN(q url.Values, p RetryPolicy) (RetryPolicy, error) {
	if v := q.Get("retry"); v != "" {
		switch v {
		case "off":
			p.Disabled = true
		case "on":
			p.Disabled = false
		default:
			return p, fmt.Errorf("retry=%q (want on or off)", v)
		}
	}
	// maxMS is the longest duration in milliseconds a time.Duration holds.
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	ints := []struct {
		key string
		max int64
		set func(int64)
	}{
		{"retry_attempts", math.MaxInt, func(n int64) { p.MaxAttempts = int(n) }},
		{"retry_base_ms", maxMS, func(n int64) { p.BaseDelay = time.Duration(n) * time.Millisecond }},
		{"retry_max_ms", maxMS, func(n int64) { p.MaxDelay = time.Duration(n) * time.Millisecond }},
		{"retry_budget_ms", maxMS, func(n int64) { p.Budget = time.Duration(n) * time.Millisecond }},
	}
	for _, it := range ints {
		v := q.Get(it.key)
		if v == "" {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 || n > it.max {
			return p, fmt.Errorf("%s=%q (want a positive integer)", it.key, v)
		}
		it.set(n)
	}
	return p, nil
}

// jitterSource randomizes backoff without seeding from the global
// generator; deterministic seeding keeps test runs reproducible.
var jitterSource = struct {
	mu sync.Mutex
	r  *mrand.Rand
}{r: mrand.New(mrand.NewSource(1))}

func jitterFloat() float64 {
	jitterSource.mu.Lock()
	defer jitterSource.mu.Unlock()
	return jitterSource.r.Float64()
}

// backoffDelay computes the sleep before retry number attempt (0-based
// count of completed attempts), honoring the server's Retry-After
// advice as a floor.
func (p RetryPolicy) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
	}
	if max := float64(p.MaxDelay); d > max {
		d = max
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*jitterFloat()-1)
	}
	delay := time.Duration(math.MaxInt64) // jitter may push d past the longest Duration
	if d < math.MaxInt64 {
		delay = time.Duration(d)
	}
	if retryAfter > delay {
		delay = retryAfter
	}
	return delay
}

// retryable classifies an attempt's error: transient server rejections
// and transport/decode failures retry; context cancellation and every
// other typed code do not. The second result is the server's
// Retry-After advice.
func retryable(err error) (bool, time.Duration) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	var te *Error
	if errors.As(err, &te) {
		switch te.Code {
		case CodeQuotaConcurrency, CodeQueueTimeout, CodeDraining:
			return true, time.Duration(te.RetryAfterMS) * time.Millisecond
		}
		return false, 0
	}
	// Transport or decode failure: the connection died, the response was
	// torn, or the dial failed — all worth another attempt.
	return true, 0
}

// withRetry runs op under the policy. op must be safe to repeat; the
// callers gate that (appends only pass keyed requests through here).
// The returned error wraps the last attempt's error with %w, so
// errors.Is / errors.As see through the retry layer.
func (c *Connector) withRetry(ctx context.Context, label string, op func() error) error {
	p := c.retry
	if p.Disabled {
		return op()
	}
	start := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		ok, retryAfter := retryable(err)
		if !ok {
			return err
		}
		if attempt+1 >= p.MaxAttempts {
			return fmt.Errorf("tdb: %s: giving up after %d attempts: %w", label, attempt+1, err)
		}
		delay := p.backoffDelay(attempt, retryAfter)
		if elapsed := time.Since(start); delay > p.Budget-elapsed {
			return fmt.Errorf("tdb: %s: retry budget %v exhausted after %d attempts: %w", label, p.Budget, attempt+1, err)
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("tdb: %s: %w (after %d attempts: %v)", label, ctx.Err(), attempt+1, err)
		case <-t.C:
		}
	}
}

// newIdemKey generates a client-side append idempotency key: 128 random
// bits, unguessable and collision-free for any realistic retry window.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// jitter source rather than sending appends unkeyed.
		jitterSource.mu.Lock()
		for i := range b {
			b[i] = byte(jitterSource.r.Intn(256))
		}
		jitterSource.mu.Unlock()
	}
	return hex.EncodeToString(b[:])
}

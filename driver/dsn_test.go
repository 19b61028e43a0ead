package driver

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A millisecond count whose time.Duration would overflow is rejected like
// any other bad count; the longest one that fits is accepted as it is.
func TestRetryDSNRejectsOverflow(t *testing.T) {
	maxMS := math.MaxInt64 / int64(time.Millisecond)
	for _, key := range []string{"retry_base_ms", "retry_max_ms", "retry_budget_ms"} {
		for _, v := range []int64{10000000000000, maxMS + 1} {
			_, err := NewConnector("http://localhost:1?" + key + "=" + strconv.FormatInt(v, 10))
			if err == nil || !strings.Contains(err.Error(), "want a positive integer") {
				t.Errorf("%s=%d: err = %v, want a positive-integer error", key, v, err)
			}
		}
		c, err := NewConnector("http://localhost:1?" + key + "=" + strconv.FormatInt(maxMS, 10))
		if err != nil {
			t.Fatalf("%s=%d: %v", key, maxMS, err)
		}
		if p := c.retry; p.BaseDelay <= 0 || p.MaxDelay <= 0 || p.Budget <= 0 {
			t.Errorf("%s=%d: policy %+v has a non-positive duration", key, maxMS, p)
		}
	}
}

// The longest accepted delay stays positive under jitter.
func TestBackoffDelayAtLongestDelay(t *testing.T) {
	p := defaultRetryPolicy()
	p.BaseDelay = time.Duration(math.MaxInt64 / int64(time.Millisecond) * int64(time.Millisecond))
	p.MaxDelay = p.BaseDelay
	for attempt := range 8 {
		if d := p.backoffDelay(attempt, 0); d <= 0 {
			t.Fatalf("attempt %d: delay %v", attempt, d)
		}
	}
}

// FuzzDSN feeds arbitrary DSNs to NewConnector: it returns an error or a
// connector whose retry attempts and durations are all positive, never a
// panic.
func FuzzDSN(f *testing.F) {
	for _, dsn := range []string{
		"http://localhost:8080?tenant=t1",
		"https://h?retry=off",
		"http://h?retry_attempts=2&retry_base_ms=1&retry_max_ms=2",
		"http://localhost:1?retry_budget_ms=10000000000000",
		"http://localhost:1?retry_base_ms=10000000000000",
		"http://h?retry_max_ms=9223372036854",
		"http://h?retry_budget_ms=-1",
		"ftp://h",
		"http://h/path",
		"",
	} {
		f.Add(dsn)
	}
	f.Fuzz(func(t *testing.T, dsn string) {
		c, err := NewConnector(dsn)
		if err != nil {
			return
		}
		if p := c.retry; p.MaxAttempts <= 0 || p.BaseDelay <= 0 || p.MaxDelay <= 0 || p.Budget <= 0 {
			t.Fatalf("DSN %q: policy %+v has a non-positive setting", dsn, p)
		}
	})
}

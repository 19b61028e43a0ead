package stream

import (
	"errors"
	"testing"
)

// flaky fails once and then — misbehaving on purpose — starts producing
// again. Combinators must latch the first failure instead of re-driving
// such a producer.
type flaky struct {
	pre   []int
	post  []int
	err   error
	calls int
}

func (f *flaky) Next() (int, bool) {
	f.calls++
	if len(f.pre) > 0 {
		x := f.pre[0]
		f.pre = f.pre[1:]
		return x, true
	}
	if f.calls == 2 { // the call that observes the failure
		return 0, false
	}
	if len(f.post) > 0 {
		x := f.post[0]
		f.post = f.post[1:]
		return x, true
	}
	return 0, false
}

func (f *flaky) Err() error { return f.err }

// drain polls the stream a few extra times past exhaustion, the way a
// defensive consumer might, and returns everything it produced.
func drain(s Stream[int]) []int {
	var out []int
	for i := 0; i < 20; i++ {
		x, ok := s.Next()
		if ok {
			out = append(out, x)
		}
	}
	return out
}

func TestFilterErrVisibleAfterExhaustion(t *testing.T) {
	boom := errors.New("boom")
	f := Filter(FailAfter(FromSlice([]int{1, 2, 3, 4}), 2, boom), func(x int) bool { return x%2 == 0 })
	got := drain(f)
	if !errors.Is(f.Err(), boom) {
		t.Fatalf("filter lost the upstream error: %v", f.Err())
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("filter produced %v, want [2]", got)
	}
}

package tsjoin

import (
	"runtime"
	"testing"
	"time"
)

// TestMatcherStartsNoGoroutine: Matcher has no Close, so it must start
// no goroutine. Creating, using and dropping 100 of them leaves the
// goroutine count unchanged.
func TestMatcherStartsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	for i := 0; i < 100; i++ {
		m, err := NewMatcher(MatcherOptions{Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		m.Add("barak obama")
		m.Add("barak obamma")
		m.Query("obama barak")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after 100 dropped matchers", before, after)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// falling, waiting at most half a second: a worker of an earlier test's
// join can still be on its way out after the join returned.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 50 {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

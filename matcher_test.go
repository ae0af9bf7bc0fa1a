package tsjoin

import (
	"runtime"
	"testing"
)

// TestMatcherStartsNoGoroutine: Matcher has no Close, so it must start
// no goroutine. Creating, using and dropping 100 of them leaves the
// goroutine count unchanged.
func TestMatcherStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
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

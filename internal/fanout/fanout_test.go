package fanout

import (
	"strings"
	"testing"
)

// TestEachRepanicsWorkerPanicOnCaller: a panic inside a fanned-out call
// is recovered on its worker, the pool still joins, and the caller
// re-panics with an error naming the index and the original value. The
// sequential path panics with the original value, as a plain loop would.
func TestEachRepanicsWorkerPanicOnCaller(t *testing.T) {
	for _, width := range []int{1, 2, 5} {
		var got any
		func() {
			defer func() { got = recover() }()
			Each(5, width, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
		if width == 1 {
			if got != "boom" {
				t.Errorf("width 1: recovered %v, want the original value", got)
			}
			continue
		}
		err, ok := got.(error)
		if !ok {
			t.Fatalf("width %d: recovered %T (%v), want an error", width, got, got)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "fanout: call 3 panicked: boom\n") {
			t.Errorf("width %d: message %q does not name call 3 and its value", width, msg)
		}
	}
}

package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, n + 5} {
		counts := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := ForEach(4, 0, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachLowestErrorWins makes the higher failing index fail first,
// so a first-error-wins pool would report it at any worker count above
// one.
func TestForEachLowestErrorWins(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 8} {
		var ran [n]atomic.Bool
		err := ForEach(workers, n, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("index %d", i)
			case 5:
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("workers=%d: err = %v, want index 3", workers, err)
		}
		for i := 0; i <= 3; i++ {
			if !ran[i].Load() {
				t.Errorf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
		if workers == 1 {
			for i := 4; i < n; i++ {
				if ran[i].Load() {
					t.Errorf("workers=1: index %d claimed after the failure", i)
				}
			}
		}
	}
}

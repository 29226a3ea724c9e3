package shard

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestLearnSize(t *testing.T) {
	for _, c := range []struct{ budget, want int }{
		{40, 10}, {10, 3}, {8, 2}, {5, 2}, {4, 2}, {1000, 250},
	} {
		got, err := LearnSize(c.budget)
		if err != nil || got != c.want {
			t.Errorf("LearnSize(%d) = %d, %v; want %d", c.budget, got, err, c.want)
		}
	}
	if _, err := LearnSize(3); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("LearnSize(3) error = %v, want ErrBudgetTooSmall", err)
	}
}

func TestEqualCountCutsAndStratumOf(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4}
	cuts := EqualCountCuts(scores, 4)
	want := []float64{0.2, 0.4, 0.7}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	sizes := make([]int, 4)
	for _, s := range scores {
		sizes[StratumOf(cuts, s)]++
	}
	for h, n := range sizes {
		if n != 2 {
			t.Errorf("stratum %d holds %d of 8 scores, want 2 (sizes %v)", h, n, sizes)
		}
	}
}

// panicky is a Worker whose Label panics — the driver-level model of a
// compiled predicate dividing by zero on some row.
type panicky struct{ Worker }

func (panicky) Label(context.Context, []int64, []int64) ([]bool, [][]float64, int, error) {
	panic("qcompile: division by zero")
}

// counting records that a worker's Label ran to completion.
type counting struct {
	Worker
	done *atomic.Int64
}

func (c counting) Label(ctx context.Context, keys, rowsOf []int64) ([]bool, [][]float64, int, error) {
	labels, rows, fresh, err := c.Worker.Label(ctx, keys, rowsOf)
	c.done.Add(1)
	return labels, rows, fresh, err
}

// TestDriveContainsWorkerPanic: a panic on one shard's scatter goroutine
// is that shard's error — the process survives, the error names the
// shard, and the other shards' calls of the same round still complete.
func TestDriveContainsWorkerPanic(t *testing.T) {
	workers := testWorkers(300, 3, false)
	var done atomic.Int64
	for s := range workers {
		if s == 1 {
			workers[s] = panicky{workers[s]}
		} else {
			workers[s] = counting{workers[s], &done}
		}
	}
	_, err := Drive(context.Background(), testPlan("srs", false), workers)
	if err == nil {
		t.Fatal("Drive succeeded although shard 1 panicked")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("error %q does not name the shard and the panic", err)
	}
	if done.Load() != 2 {
		t.Errorf("%d of the 2 healthy shards finished their label round, want 2", done.Load())
	}
}

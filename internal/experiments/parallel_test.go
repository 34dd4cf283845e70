package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"hebs/internal/sipi"
)

func TestForEachImageCoversAll(t *testing.T) {
	suite, err := sipi.Suite(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	var visited int64
	seen := make([]int32, len(suite))
	err = forEachImageCtx(context.Background(), suite, 0, func(i int, ni sipi.NamedImage) error {
		atomic.AddInt64(&visited, 1)
		atomic.AddInt32(&seen[i], 1)
		if ni.Name != suite[i].Name {
			t.Errorf("index %d got image %q", i, ni.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != int64(len(suite)) {
		t.Errorf("visited %d, want %d", visited, len(suite))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachImagePropagatesError(t *testing.T) {
	suite, err := sipi.Suite(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = forEachImageCtx(context.Background(), suite, 0, func(i int, ni sipi.NamedImage) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestForEachImageEmptySuite(t *testing.T) {
	if err := forEachImageCtx(context.Background(), nil, 0, func(i int, ni sipi.NamedImage) error {
		t.Error("fn called on empty suite")
		return nil
	}); err != nil {
		t.Errorf("empty suite error: %v", err)
	}
}

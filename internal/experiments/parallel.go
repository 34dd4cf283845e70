// Concurrent fan-out over the benchmark suite. The experiments are
// embarrassingly parallel across images; results are written into
// per-image slots and reduced sequentially afterwards, so parallel
// runs produce bit-identical numbers to serial ones (floating-point
// accumulation order never changes). The goroutine pool itself lives
// in internal/parallel — this file only binds it to the suite shape.
package experiments

import (
	"context"

	"hebs/internal/parallel"
	"hebs/internal/sipi"
)

// forEachImageCtx runs fn for every suite image concurrently, bounded
// by workers (<= 0 selects all CPUs). fn receives the image index so
// callers can write into pre-allocated result slots without
// synchronization. The first error stops the fan-out (in-flight images
// finish) and is returned; once ctx is done no new images start, and
// ctx's error is reported if nothing failed first.
func forEachImageCtx(ctx context.Context, suite []sipi.NamedImage, workers int, fn func(i int, ni sipi.NamedImage) error) error {
	return parallel.ForEach(ctx, len(suite), workers, func(i int) error {
		return fn(i, suite[i])
	})
}

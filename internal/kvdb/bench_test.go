// Benchmarks for the WAL durability path (DESIGN.md §5, §6): the same
// concurrent write workload with the fsync barrier and without it. Run with
//
//	go test ./internal/kvdb -bench=BenchmarkConcurrentWriters -benchmem
//
// durable/writers=1 is the cost of one sealed, fsynced record; at 8+
// writers recs/batch shows how many records each fsync is amortised over
// (writers queue behind the fsync in flight and the next leader takes
// them all).
package kvdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"palaemon/internal/cryptoutil"
)

func benchWriters(b *testing.B, opts Options, writers int) {
	dir := b.TempDir()
	db, err := Open(dir, cryptoutil.MustNewKey(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	value := make([]byte, 128)
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := db.Put("bench", fmt.Sprintf("w%d-%d", w, i), value); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if batches, records := db.CommitStats(); batches > 0 {
		b.ReportMetric(float64(records)/float64(batches), "recs/batch")
	}
}

// BenchmarkConcurrentWriters is the writers × durability grid.
func BenchmarkConcurrentWriters(b *testing.B) {
	for _, writers := range []int{1, 8, 32} {
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"durable", Options{}},
			{"no-fsync", Options{NoFsync: true}},
		} {
			b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
				benchWriters(b, mode.opts, writers)
			})
		}
	}
}

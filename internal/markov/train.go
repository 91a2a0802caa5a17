package markov

import (
	"hash/fnv"
	"runtime"
	"sync"
)

// TrainAll folds a batch of sequences into a predictor, serially.
func TrainAll(p Predictor, seqs [][]string) {
	for _, s := range seqs {
		p.TrainSequence(s)
	}
}

// ShardedTrainer is implemented by models whose training can be split
// across workers: NewShard returns a fresh, empty model compatible with
// the receiver, and MergeShard folds a trained shard's counts back into
// it. Because tree counts are additive and the fold is commutative over
// them, a model trained through shards is equivalent to one trained
// serially on the same sequences.
type ShardedTrainer interface {
	Predictor
	// NewShard returns an empty model sharing the receiver's
	// configuration, suitable for independent training.
	NewShard() Predictor
	// MergeShard folds a shard previously returned by NewShard into the
	// receiver and consumes it: the shard's nodes move into the
	// receiver (Tree.Absorb), so the shard must not be used afterwards.
	// It must not run concurrently with other methods.
	MergeShard(shard Predictor)
}

// IncrementalTrainer is implemented by models that support O(delta)
// incremental updates: Clone returns a deep copy of the model whose
// subsequent training or merging never mutates the receiver, and
// MergeShard (inherited from ShardedTrainer) folds a delta shard into
// that clone. The maintenance loop uses the pair as its delta-merge
// path: train only the newly observed sessions into a fresh shard, fold
// the shard into a clone of the live snapshot, and publish the clone —
// cost proportional to the delta, not the training window.
//
// A Clone result is always the same concrete type as the receiver and
// therefore also implements IncrementalTrainer. Read-only collaborators
// (a popularity grader) may be shared between the clone and the
// receiver; everything trainable must be deep-copied.
type IncrementalTrainer interface {
	ShardedTrainer
	// Clone returns a deep copy suitable for absorbing a delta while the
	// receiver stays published. It must not run concurrently with
	// training on the receiver.
	Clone() Predictor
}

// minParallelSeqs is the batch size below which sharding overhead
// (goroutines, per-shard trees, the merge) outweighs the speedup.
const minParallelSeqs = 64

// TrainAllParallel folds a batch of sequences into a predictor using up
// to GOMAXPROCS workers when the predictor supports sharded training.
// Sequences are sharded by a hash of their head URL, so sessions that
// grow the same root branches land in the same shard and the per-shard
// trees stay disjoint where it matters. Models that do not implement
// ShardedTrainer, and small batches, are trained serially. The result
// is deterministic: identical to serial TrainAll regardless of worker
// count.
func TrainAllParallel(p Predictor, seqs [][]string) {
	trainAllWorkers(p, seqs, runtime.GOMAXPROCS(0))
}

// trainAllWorkers is TrainAllParallel with an explicit worker count,
// split out so tests can force parallelism on single-CPU machines.
func trainAllWorkers(p Predictor, seqs [][]string, workers int) {
	st, ok := p.(ShardedTrainer)
	if !ok || workers < 2 || len(seqs) < minParallelSeqs {
		TrainAll(p, seqs)
		return
	}
	if workers > len(seqs) {
		workers = len(seqs)
	}

	shardOf := func(seq []string) int {
		h := fnv.New32a()
		h.Write([]byte(seq[0]))
		return int(h.Sum32() % uint32(workers))
	}
	buckets := make([][][]string, workers)
	for _, s := range seqs {
		if len(s) == 0 {
			continue
		}
		i := shardOf(s)
		buckets[i] = append(buckets[i], s)
	}

	shards := make([]Predictor, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		if len(buckets[i]) == 0 {
			continue
		}
		shards[i] = st.NewShard()
		wg.Add(1)
		go func(shard Predictor, batch [][]string) {
			defer wg.Done()
			for _, s := range batch {
				shard.TrainSequence(s)
			}
		}(shards[i], buckets[i])
	}
	wg.Wait()

	// Fold in shard order so symbol assignment in the destination tree
	// is deterministic for a given worker count. Each fold consumes its
	// shard.
	for _, shard := range shards {
		if shard != nil {
			st.MergeShard(shard)
		}
	}
}

package reason

import (
	"runtime"
	"sync"

	"repro/internal/store"
)

// MaterializeParallel computes the same closure as Materialize using
// round-synchronous parallelism, a single-machine take on the paper's open
// issue of "efficiently maintaining RDF graph saturation, especially in a
// distributed setting" (§II-D; Motik et al. [29] study the shared-memory
// version at scale, and Ajileye et al. identify the closure-merge step as
// the scalability bottleneck — addressed here with a hash-sharded merge).
//
// Within one round the store is frozen: workers partition the delta and
// compute rule instantiations against the read-only store, hash-routing
// their conclusions into per-shard buckets. The merge then runs in two
// concurrent stages instead of the former sequential Add loop: (1) one
// goroutine per shard deduplicates the conclusions of its shard across all
// workers (a triple always hashes to the same shard, so shard-local dedup is
// global dedup), and (2) the surviving triples are inserted with one writer
// per index order (store.AddBatchParallel). Conclusions produced in a round
// only become visible in the next round, so the iteration may need more
// rounds than the sequential semi-naive engine, but it reaches the same
// fixpoint (naive-iteration argument: every rule application eventually
// fires).
//
// workers ≤ 0 selects GOMAXPROCS; workers == 1 degenerates to the
// sequential semi-naive engine (the round machinery would only add
// overhead). The returned Materialization supports the same incremental
// maintenance as the sequential one.
func MaterializeParallel(g *store.Store, rules []Rule, workers int) *Materialization {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return Materialize(g, rules)
	}
	m := &Materialization{
		st:    store.New(),
		base:  store.NewTripleSet(),
		rules: rules,
	}
	delta := make([]store.Triple, 0, g.Len())
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		m.base.Add(t)
		m.st.Add(t)
		delta = append(delta, t)
		return true
	})

	prevOut := len(delta)
	for len(delta) > 0 {
		m.Stats.Rounds++
		shards := parallelRound(m.st, rules, delta, workers, prevOut)
		m.Stats.Derived += m.st.AddBatchParallel(shards...)
		delta = delta[:0]
		for _, sh := range shards {
			delta = append(delta, sh...)
		}
		prevOut = len(delta)
	}
	return m
}

// tripleShard hashes a triple to a merge shard. The multipliers are odd
// 64-bit constants (Fibonacci hashing style); any deterministic mix works,
// it only has to spread LUBM-ish ID distributions evenly across shards.
func tripleShard(t store.Triple, shards int) int {
	h := uint64(t.S)*0x9E3779B185EBCA87 ^ uint64(t.P)*0xC2B2AE3D27D4EB4F ^ uint64(t.O)*0x165667B19E3779F9
	h ^= h >> 32
	return int(h % uint64(shards))
}

// parallelRound joins every delta triple against the frozen store under
// every rule and returns the new conclusions grouped by shard, globally
// deduplicated and not yet in st. Derivation fans the delta out over
// workers; each worker deduplicates locally (its map pre-sized from the
// previous round's output, so steady rounds do not rehash) and routes its
// conclusions into per-shard buckets. A second fan-out then merges each
// shard's buckets across workers concurrently.
func parallelRound(st *store.Store, rules []Rule, delta []store.Triple, workers, prevOut int) [][]store.Triple {
	if len(delta) < 2*workers {
		workers = 1
	}
	shards := workers
	chunk := (len(delta) + workers - 1) / workers
	buckets := make([][][]store.Triple, workers) // worker → shard → conclusions
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(delta))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var sc scratch // per-worker binding buffers, no sharing across goroutines
			local := make(map[store.Triple]struct{}, prevOut/workers+1)
			for _, t := range delta[lo:hi] {
				for ri := range rules {
					r := &rules[ri]
					for pos := 0; pos < 2; pos++ {
						forEachInstantiation(st, r, pos, t, &sc, func(c, _ store.Triple) {
							if !st.Contains(c) {
								local[c] = struct{}{}
							}
						})
					}
				}
			}
			bs := make([][]store.Triple, shards)
			for c := range local {
				s := tripleShard(c, shards)
				bs[s] = append(bs[s], c)
			}
			buckets[w] = bs
		}(w, lo, hi)
	}
	wg.Wait()

	// Cross-worker dedup, one goroutine per shard. Triples equal across
	// workers landed in the same shard, so the shard-local sets compose to a
	// global dedup without any shared state.
	merged := make([][]store.Triple, shards)
	if shards == 1 {
		merged[0] = mergeShard(buckets, 0)
		return merged
	}
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			merged[s] = mergeShard(buckets, s)
		}(s)
	}
	wg.Wait()
	return merged
}

// mergeShard deduplicates shard s's conclusions across all workers.
func mergeShard(buckets [][][]store.Triple, s int) []store.Triple {
	total := 0
	for _, bs := range buckets {
		if bs != nil {
			total += len(bs[s])
		}
	}
	if total == 0 {
		return nil
	}
	seen := make(map[store.Triple]struct{}, total)
	out := make([]store.Triple, 0, total)
	for _, bs := range buckets {
		if bs == nil {
			continue
		}
		for _, c := range bs[s] {
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}

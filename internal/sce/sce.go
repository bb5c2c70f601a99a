// Package sce implements semantic cardinality estimation (paper §VI-B):
// predicting the result size of a natural-language predicate over an
// unstructured corpus without executing it in full.
//
// The Unify estimator is importance sampling guided by embedding distance:
// documents are bucketed by their distance to the predicate's embedding,
// a piecewise importance function f (learned from historical predicates)
// allocates the sample budget across buckets, sampled documents are judged
// by the LLM, and the cardinality is estimated as
//
//	Σ_i n_i · (Σ_{x∈S_i} θ(x)) / (n_s · f_i)
//
// Uniform sampling is the special case f_i = n_i/N. The package also
// provides the paper's baselines: uniform, stratified, and adaptive
// importance sampling (AIS).
package sce

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"unify/internal/docstore"
	"unify/internal/llm"
)

// Method names the estimation strategies of Table III.
type Method string

// Estimation methods.
const (
	Uniform    Method = "uniform"
	Stratified Method = "stratified"
	AIS        Method = "ais"
	Unify      Method = "unify"
)

// Estimator performs semantic cardinality estimation over a store.
type Estimator struct {
	Store   *docstore.Store
	Client  llm.Client
	Buckets int
	Seed    uint64

	// f is the learned piecewise importance function (Σf = 1). Before
	// Train it is uniform.
	f []float64
}

// NewEstimator returns an estimator with a uniform importance function.
func NewEstimator(store *docstore.Store, client llm.Client, buckets int) *Estimator {
	if buckets < 2 {
		buckets = 8
	}
	f := make([]float64, buckets)
	for i := range f {
		f[i] = 1 / float64(buckets)
	}
	return &Estimator{Store: store, Client: client, Buckets: buckets, Seed: 7, f: f}
}

// Importance returns a copy of the current importance function.
func (e *Estimator) Importance() []float64 {
	return append([]float64(nil), e.f...)
}

// bucketize sorts all document ids by embedding distance to the predicate
// and splits them into equal-count buckets (nearest first): a full
// distance scan plus an O(N log N) sort per call. Repeated predicates are
// absorbed above this, by the optimizer's selectivity cache.
func (e *Estimator) bucketize(pred string) [][]int {
	dist := e.Store.Distances(pred)
	ids := make([]int, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if dist[ids[i]] != dist[ids[j]] {
			return dist[ids[i]] < dist[ids[j]]
		}
		return ids[i] < ids[j]
	})
	buckets := make([][]int, e.Buckets)
	n := len(ids)
	for i := 0; i < e.Buckets; i++ {
		lo := i * n / e.Buckets
		hi := (i + 1) * n / e.Buckets
		buckets[i] = ids[lo:hi]
	}
	return buckets
}

// sampleBucket deterministically picks k documents from a bucket, keyed
// by the predicate (so different predicates sample differently but runs
// reproduce).
func (e *Estimator) sampleBucket(pred string, bucket []int, k int) []int {
	if k <= 0 {
		return nil
	}
	if k >= len(bucket) {
		return append([]int(nil), bucket...)
	}
	type keyed struct {
		id int
		h  uint64
	}
	ks := make([]keyed, len(bucket))
	for i, id := range bucket {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d", e.Seed, pred, id)
		ks[i] = keyed{id, h.Sum64()}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].h != ks[j].h {
			return ks[i].h < ks[j].h
		}
		return ks[i].id < ks[j].id
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ks[i].id
	}
	return out
}

// judge evaluates the predicate on the sampled documents with the LLM,
// returning the number satisfied. Calls go through the provided client
// (wrap in a Recorder to charge them to planning time).
func (e *Estimator) judge(ctx context.Context, client llm.Client, pred string, ids []int) (int, error) {
	sat := 0
	for _, id := range ids {
		d, ok := e.Store.Doc(id)
		if !ok {
			return 0, fmt.Errorf("sce: unknown document %d", id)
		}
		resp, err := llm.Do(ctx, client, llm.NewRequest("filter_doc",
			llm.Text("condition", pred),
			llm.Text("doc", d.Text),
		))
		if err != nil {
			return 0, err
		}
		if strings.TrimSpace(resp.Text) == "yes" {
			sat++
		}
	}
	return sat, nil
}

// Train learns the importance function from historical predicates: each
// bucket's importance is proportional to the average satisfied mass
// observed there (paper: "learned from historical queries").
func (e *Estimator) Train(ctx context.Context, preds []string, perBucket int) error {
	if perBucket <= 0 {
		perBucket = 24
	}
	mass := make([]float64, e.Buckets)
	for _, pred := range preds {
		buckets := e.bucketize(pred)
		for i, b := range buckets {
			sample := e.sampleBucket("train|"+pred, b, perBucket)
			if len(sample) == 0 {
				continue
			}
			sat, err := e.judge(ctx, e.Client, pred, sample)
			if err != nil {
				return err
			}
			frac := float64(sat) / float64(len(sample))
			mass[i] += frac * float64(len(b))
		}
	}
	const eps = 0.02
	total := 0.0
	for i := range mass {
		mass[i] += eps * float64(len(e.Store.Docs)) / float64(e.Buckets)
		total += mass[i]
	}
	for i := range mass {
		e.f[i] = mass[i] / total
	}
	return nil
}

// Estimate predicts the predicate's cardinality with the given method and
// a total sample budget ns. The returned calls let callers charge the
// estimation to the planning clock.
func (e *Estimator) Estimate(ctx context.Context, method Method, pred string, ns int) (float64, []llm.Call, error) {
	return e.EstimateSeeded(ctx, method, pred, ns, "")
}

// EstimateSeeded is Estimate with an extra sampling-salt, letting
// evaluations draw independent sample sets for the same predicate
// (used to measure estimator error distributions).
func (e *Estimator) EstimateSeeded(ctx context.Context, method Method, pred string, ns int, salt string) (float64, []llm.Call, error) {
	if ns < e.Buckets {
		ns = e.Buckets
	}
	rec := llm.NewRecorder(e.Client)
	buckets := e.bucketize(pred)
	n := len(e.Store.Docs)
	skey := pred + salt

	est := 0.0
	switch method {
	case Uniform:
		// f_i = n_i/N: sample proportional to bucket size — equivalent
		// to plain uniform sampling over the corpus.
		sat, tot := 0, 0
		for _, b := range buckets {
			k := int(math.Round(float64(ns) * float64(len(b)) / float64(n)))
			sample := e.sampleBucket(skey, b, k)
			s, err := e.judge(ctx, rec, pred, sample)
			if err != nil {
				return 0, nil, err
			}
			sat += s
			tot += len(sample)
		}
		if tot > 0 {
			est = float64(n) * float64(sat) / float64(tot)
		}
	case Stratified:
		// Equal allocation per stratum; per-stratum extrapolation.
		per := ns / e.Buckets
		for _, b := range buckets {
			sample := e.sampleBucket(skey, b, per)
			if len(sample) == 0 {
				continue
			}
			s, err := e.judge(ctx, rec, pred, sample)
			if err != nil {
				return 0, nil, err
			}
			est += float64(len(b)) * float64(s) / float64(len(sample))
		}
	case AIS:
		// Two iterations: uniform allocation, then reallocate by the
		// observed satisfied mass (VEGAS-style refinement).
		half := ns / 2
		per := half / e.Buckets
		interim := make([]float64, e.Buckets)
		for i, b := range buckets {
			sample := e.sampleBucket(skey+"|ais1", b, per)
			if len(sample) == 0 {
				continue
			}
			s, err := e.judge(ctx, rec, pred, sample)
			if err != nil {
				return 0, nil, err
			}
			interim[i] = float64(s)/float64(len(sample))*float64(len(b)) + 1
		}
		totalMass := 0.0
		for _, m := range interim {
			totalMass += m
		}
		if totalMass <= 0 {
			// First iteration saw nothing (tiny budget): fall back to a
			// uniform second-stage allocation.
			for i := range interim {
				interim[i] = 1
			}
			totalMass = float64(len(interim))
		}
		for i, b := range buckets {
			fi := interim[i] / totalMass
			k := int(math.Round(float64(ns-half) * fi))
			sample := e.sampleBucket(skey+"|ais2", b, k)
			if len(sample) == 0 {
				continue
			}
			s, err := e.judge(ctx, rec, pred, sample)
			if err != nil {
				return 0, nil, err
			}
			// Combine both iterations' observations per bucket.
			est += float64(len(b)) * float64(s) / float64(len(sample))
		}
	case Unify:
		totalSat := 0
		firstBucketN, firstBucketK := 0, 0
		for i, b := range buckets {
			k := int(math.Round(float64(ns) * e.f[i]))
			sample := e.sampleBucket(skey, b, k)
			if i == 0 {
				firstBucketN, firstBucketK = len(b), len(sample)
			}
			if len(sample) == 0 {
				continue
			}
			s, err := e.judge(ctx, rec, pred, sample)
			if err != nil {
				return 0, nil, err
			}
			totalSat += s
			// n_i · Σθ / (n_s · f_i), with the realized sample size.
			est += float64(len(b)) * float64(s) / float64(len(sample))
		}
		if totalSat == 0 && firstBucketK > 0 {
			// No sample satisfied the predicate: the importance prior
			// bounds the estimate instead of collapsing to zero ("rule
			// of three"-style smoothing over the nearest bucket).
			est = 0.5 * float64(firstBucketN) / float64(firstBucketK+1)
		}
	default:
		return 0, nil, fmt.Errorf("sce: unknown method %q", method)
	}
	if est < 0 {
		est = 0
	}
	return est, rec.Calls(), nil
}

// TrueCardinality executes the predicate over the whole corpus with
// batched LLM judgments — the ground truth for q-error evaluation and for
// the Unify-GD ablation.
func (e *Estimator) TrueCardinality(ctx context.Context, pred string, batch int) (int, error) {
	if batch <= 0 {
		batch = 16
	}
	ids := e.Store.IDs()
	sat := 0
	for start := 0; start < len(ids); start += batch {
		end := start + batch
		if end > len(ids) {
			end = len(ids)
		}
		texts := make([]string, 0, end-start)
		for _, id := range ids[start:end] {
			d, _ := e.Store.Doc(id)
			texts = append(texts, d.Text)
		}
		resp, err := llm.Do(ctx, e.Client, llm.NewRequest("filter_batch",
			llm.Text("condition", pred),
			llm.Docs("docs", texts),
		))
		if err != nil {
			return 0, err
		}
		for _, v := range strings.Split(resp.Text, ",") {
			if strings.TrimSpace(v) == "yes" {
				sat++
			}
		}
	}
	return sat, nil
}

// QError is the evaluation metric of Table III: max(est/true, true/est),
// with both sides floored at 1 to avoid division blowups on empty
// results.
func QError(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

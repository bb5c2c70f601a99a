// Package docstore holds a collection of plain-text documents and the
// offline preprocessing Unify performs over it (paper §III-A): document
// and sentence embeddings, and vector indexes for IndexScan and retrieval.
package docstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"unify/internal/embedding"
	"unify/internal/vector"
	"unify/internal/views"
)

// Document is one unstructured item. Text is everything the analytics
// system may look at.
type Document struct {
	ID    int
	Title string
	Text  string
}

// Store is an indexed document collection.
type Store struct {
	Name string
	Docs []Document

	embedder *embedding.Embedder
	docVecs  [][]float32
	byID     map[int]int

	// Incremental-ingestion state: the construction options (so AddDocs
	// and UpdateDoc reindex exactly as New would), per-document content
	// hashes, and the corpus generation — bumped on every mutation so
	// state derived from the corpus can be keyed by it (see Generation).
	opts       options
	hashes     map[int]uint64
	generation atomic.Uint64

	flat *vector.Flat
	hnsw *vector.HNSW

	// Sentence-level retrieval structures for RAG-style access.
	sentences []Sentence
	sentIndex *vector.Flat
}

// Sentence is one retrievable sentence with its source document.
type Sentence struct {
	DocID int
	Text  string
}

// Option configures store construction.
type Option func(*options)

type options struct {
	withSent bool
}

// WithoutSentences skips the sentence-level index (saves preprocessing
// time when no RAG baseline runs).
func WithoutSentences() Option { return func(o *options) { o.withSent = false } }

// New builds a store over docs, embedding every document (and sentence)
// and constructing both the exact and the HNSW index. This is Unify's
// offline preprocessing step.
func New(name string, docs []Document, opts ...Option) (*Store, error) {
	o := options{withSent: true}
	for _, f := range opts {
		f(&o)
	}
	s := &Store{
		Name:     name,
		embedder: embedding.New(embedding.DefaultDim),
		byID:     make(map[int]int, len(docs)),
		flat:     vector.NewFlat(),
		hnsw:     vector.NewHNSW(vector.DefaultHNSWConfig()),
		opts:     o,
		hashes:   make(map[int]uint64, len(docs)),
	}
	if o.withSent {
		s.sentIndex = vector.NewFlat()
	}
	if err := s.indexDocs(docs); err != nil {
		return nil, err
	}
	return s, nil
}

// indexDocs appends docs to every index: document embeddings first (in
// order), then the sentence structures for the same span. AddDocs uses
// the identical sequence, so building a corpus incrementally produces
// byte-for-byte the same vectors, HNSW graph (same insertion order,
// same RNG stream), and sentence ids as a one-shot New over the full
// collection in the same order.
func (s *Store) indexDocs(docs []Document) error {
	for _, d := range docs {
		if _, dup := s.byID[d.ID]; dup {
			return fmt.Errorf("docstore: duplicate document id %d", d.ID)
		}
	}
	for _, d := range docs {
		s.byID[d.ID] = len(s.Docs)
		s.Docs = append(s.Docs, d)
		v := s.embedder.Embed(d.Text)
		s.docVecs = append(s.docVecs, v)
		if err := s.flat.Add(d.ID, v); err != nil {
			return err
		}
		if err := s.hnsw.Add(d.ID, v); err != nil {
			return err
		}
		s.hashes[d.ID] = views.DocHash(d.Title, d.Text)
	}
	if s.sentIndex != nil {
		sid := len(s.sentences)
		for _, d := range docs {
			for _, sent := range SplitSentences(d.Text) {
				s.sentences = append(s.sentences, Sentence{DocID: d.ID, Text: sent})
				if err := s.sentIndex.Add(sid, s.embedder.Embed(sent)); err != nil {
					return err
				}
				sid++
			}
		}
	}
	return nil
}

// AddDocs ingests new documents into every index (document vectors,
// HNSW, sentence retrieval) and bumps the corpus generation. Ids must
// be new; use UpdateDoc to change an existing document. The caller is
// responsible for quiescing queries during the mutation (unify.System
// serializes ingests and runs them outside any query).
func (s *Store) AddDocs(docs []Document) error {
	if len(docs) == 0 {
		return nil
	}
	if err := s.indexDocs(docs); err != nil {
		return err
	}
	s.generation.Add(1)
	return nil
}

// UpdateDoc is UpdateDocs for one document.
func (s *Store) UpdateDoc(d Document) error { return s.UpdateDocs([]Document{d}) }

// UpdateDocs replaces the content of existing documents, in order, and
// bumps the corpus generation once per document. It recomputes only what
// the new content determines — each document's embedding, content hash and
// sentence embeddings, replaced at the positions they already hold — and
// rebuilds only the HNSW graph, once, from the vectors the store holds
// (the sentence index, a list of vectors by position, is re-assembled from
// the held vectors once as well).
// The graph is rebuilt rather than repaired because HNSW has no delete and
// its search is not exact: re-inserting in collection order with a fresh
// level RNG yields byte for byte the graph of a cold build over the mutated
// corpus, which is the equivalence the ingest determinism tests pin. An
// unknown id fails the whole call before anything changes.
func (s *Store) UpdateDocs(docs []Document) error {
	for _, d := range docs {
		if _, ok := s.byID[d.ID]; !ok {
			return fmt.Errorf("docstore: update of unknown document id %d", d.ID)
		}
	}
	if len(docs) == 0 {
		return nil
	}
	var sentVecs [][]float32
	if s.sentIndex != nil {
		sentVecs = make([][]float32, len(s.sentences))
		for j := range sentVecs {
			sentVecs[j] = s.sentIndex.Vector(j)
		}
	}
	for _, d := range docs {
		i := s.byID[d.ID]
		v := s.embedder.Embed(d.Text)
		s.Docs[i] = d
		s.docVecs[i] = v
		s.flat.Set(d.ID, v)
		s.hashes[d.ID] = views.DocHash(d.Title, d.Text)
		if s.sentIndex != nil {
			sentVecs = s.spliceSentences(sentVecs, i, d)
		}
	}
	if s.sentIndex != nil {
		s.sentIndex = vector.NewFlat()
		for j, v := range sentVecs {
			if err := s.sentIndex.Add(j, v); err != nil {
				return err
			}
		}
	}
	s.hnsw = vector.NewHNSW(s.hnsw.Config())
	for i, d := range s.Docs {
		if err := s.hnsw.Add(d.ID, s.docVecs[i]); err != nil {
			return err
		}
	}
	s.generation.Add(uint64(len(docs)))
	return nil
}

// spliceSentences replaces the sentences of d, the document at collection
// position i, and their vectors in vecs, where they stand. Sentences are
// held in collection order and a sentence's id is its position, so the
// spliced lists are the ones a cold build produces, also when the sentence
// count changes or was zero.
func (s *Store) spliceSentences(vecs [][]float32, i int, d Document) [][]float32 {
	lo := sort.Search(len(s.sentences), func(j int) bool { return s.byID[s.sentences[j].DocID] >= i })
	hi := lo
	for hi < len(s.sentences) && s.sentences[hi].DocID == d.ID {
		hi++
	}
	var sents []Sentence
	var sentVecs [][]float32
	for _, text := range SplitSentences(d.Text) {
		sents = append(sents, Sentence{DocID: d.ID, Text: text})
		sentVecs = append(sentVecs, s.embedder.Embed(text))
	}
	s.sentences = slices.Replace(s.sentences, lo, hi, sents...)
	return slices.Replace(vecs, lo, hi, sentVecs...)
}

// Generation reports how many times the corpus has been mutated since
// construction (0 for a static corpus, persisted across Save/Load).
// The optimizer embeds it in every plan and selectivity cache key, so a
// mutation invalidates all derived state at once.
func (s *Store) Generation() uint64 { return s.generation.Load() }

// ContentHash returns the live content hash of a document, the
// freshness token for materialized view rows.
func (s *Store) ContentHash(id int) (uint64, bool) {
	h, ok := s.hashes[id]
	return h, ok
}

// embed returns the query embedding.
func (s *Store) embed(query string) []float32 { return s.embedder.Embed(query) }

// Embedder exposes the store's embedding model.
func (s *Store) Embedder() *embedding.Embedder { return s.embedder }

// Len returns the number of documents.
func (s *Store) Len() int { return len(s.Docs) }

// Doc returns the document with the given id.
func (s *Store) Doc(id int) (Document, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Document{}, false
	}
	return s.Docs[i], true
}

// IDs returns all document ids in collection order.
func (s *Store) IDs() []int {
	out := make([]int, len(s.Docs))
	for i, d := range s.Docs {
		out[i] = d.ID
	}
	return out
}

// Vector returns the embedding of the document with the given id.
func (s *Store) Vector(id int) []float32 {
	return s.flat.Vector(id)
}

// SearchDocs returns the k nearest documents to the query text, using the
// HNSW index (the IndexScan access path).
func (s *Store) SearchDocs(query string, k int) []vector.Result {
	return s.hnsw.Search(s.embed(query), k)
}

// SearchDocsExact is the exact (linear) variant of SearchDocs.
func (s *Store) SearchDocsExact(query string, k int) []vector.Result {
	return s.flat.Search(s.embed(query), k)
}

// Distances returns cosine distances from the query text to every
// document, keyed by document id (used by cardinality estimation).
func (s *Store) Distances(query string) map[int]float64 {
	return s.flat.Distances(s.embed(query))
}

// SearchSentences returns the k nearest sentences to the query text
// (RAG-style retrieval). It returns nil when the sentence index was
// disabled.
func (s *Store) SearchSentences(query string, k int) []Sentence {
	if s.sentIndex == nil {
		return nil
	}
	res := s.sentIndex.Search(s.embed(query), k)
	out := make([]Sentence, len(res))
	for i, r := range res {
		out[i] = s.sentences[r.ID]
	}
	return out
}

// SplitSentences performs simple sentence segmentation: splits on line
// breaks and sentence-final punctuation, dropping empties.
func SplitSentences(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		start := 0
		for i := 0; i < len(line); i++ {
			if line[i] == '.' || line[i] == '?' || line[i] == '!' {
				if s := strings.TrimSpace(line[start : i+1]); s != "" {
					out = append(out, s)
				}
				start = i + 1
			}
		}
		if s := strings.TrimSpace(line[start:]); s != "" {
			out = append(out, s)
		}
	}
	return out
}

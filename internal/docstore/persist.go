package docstore

import (
	"encoding/gob"
	"fmt"
	"io"

	"unify/internal/embedding"
	"unify/internal/vector"
	"unify/internal/views"
)

// snapshot is the gob-serialized form of a Store: documents, embeddings
// and the HNSW graph, so reopening a collection skips the offline
// preprocessing phase entirely.
type snapshot struct {
	Version   int
	Name      string
	Dim       int
	Docs      []Document
	DocVecs   [][]float32
	Sentences []Sentence
	SentVecs  [][]float32
	HNSW      *vector.HNSWDump
	// Mutation state (version 1 additions; gob leaves them zero when
	// absent, matching the static corpora old snapshots describe).
	// Generation is the corpus mutation counter; HasSentIndex records
	// that the sentence index exists even when it is empty (gob encodes
	// an empty SentVecs as nil, which used to silently disable sentence
	// retrieval — and post-load ingestion — after a round-trip).
	Generation   uint64
	HasSentIndex bool
}

const snapshotVersion = 1

// Save serializes the store's full preprocessed state, including the
// mutation state (generation, content hashes are recomputed on load)
// that post-load ingestion needs.
func (s *Store) Save(w io.Writer) error {
	snap := snapshot{
		Version:      snapshotVersion,
		Name:         s.Name,
		Dim:          s.embedder.Dim(),
		Docs:         s.Docs,
		DocVecs:      s.docVecs,
		Sentences:    s.sentences,
		HNSW:         s.hnsw.Export(),
		Generation:   s.generation.Load(),
		HasSentIndex: s.sentIndex != nil,
	}
	if s.sentIndex != nil {
		snap.SentVecs = make([][]float32, len(s.sentences))
		for i := range s.sentences {
			snap.SentVecs[i] = s.sentIndex.Vector(i)
		}
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reconstructs a store from a snapshot produced by Save.
func Load(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("docstore: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("docstore: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if len(snap.DocVecs) != len(snap.Docs) {
		return nil, fmt.Errorf("docstore: snapshot has %d vectors for %d documents", len(snap.DocVecs), len(snap.Docs))
	}
	s := &Store{
		Name:     snap.Name,
		Docs:     snap.Docs,
		embedder: embedding.New(snap.Dim),
		docVecs:  snap.DocVecs,
		byID:     make(map[int]int, len(snap.Docs)),
		flat:     vector.NewFlat(),
		hashes:   make(map[int]uint64, len(snap.Docs)),
	}
	s.generation.Store(snap.Generation)
	for i, d := range snap.Docs {
		if _, dup := s.byID[d.ID]; dup {
			return nil, fmt.Errorf("docstore: duplicate document id %d in snapshot", d.ID)
		}
		s.byID[d.ID] = i
		s.hashes[d.ID] = views.DocHash(d.Title, d.Text)
		if err := s.flat.Add(d.ID, snap.DocVecs[i]); err != nil {
			return nil, err
		}
	}
	hnsw, err := vector.ImportHNSW(snap.HNSW)
	if err != nil {
		return nil, err
	}
	if hnsw.Len() != len(snap.Docs) {
		return nil, fmt.Errorf("docstore: HNSW has %d nodes for %d documents", hnsw.Len(), len(snap.Docs))
	}
	s.hnsw = hnsw
	// Post-load mutation (AddDocs/UpdateDoc) reindexes exactly as the
	// original store would: the HNSW dump carries the normalized graph
	// parameters and the RNG stream position, so incremental inserts
	// after a round-trip are byte-identical to inserts into a
	// never-persisted store.
	s.opts = options{withSent: snap.HasSentIndex || len(snap.SentVecs) > 0}
	if snap.SentVecs != nil {
		if len(snap.SentVecs) != len(snap.Sentences) {
			return nil, fmt.Errorf("docstore: snapshot has %d sentence vectors for %d sentences",
				len(snap.SentVecs), len(snap.Sentences))
		}
		s.sentences = snap.Sentences
	}
	if s.opts.withSent {
		s.sentIndex = vector.NewFlat()
		for i, v := range snap.SentVecs {
			if err := s.sentIndex.Add(i, v); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

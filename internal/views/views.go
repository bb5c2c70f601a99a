// Package views implements materialized semantic views: per-document
// operator results (filter verdicts, classification labels, extracted
// field values) persisted as named columns and reused across queries.
//
// A row is keyed by (column, document id) and carries the content hash
// of the document it was computed from. Reads succeed only when the
// stored hash matches the live document's hash, so a row can never
// outlive the content that produced it: updating a document silently
// retires its rows, and re-ingesting identical content revives them.
// This is the amortize-once-query-many pattern (Lin et al.; Aryn):
// the first query over a predicate pays the LLM scan and backfills the
// column, later queries — and later corpus generations, for untouched
// documents — read it back at zero model cost.
//
// Determinism contract: the store itself performs no model calls and
// takes no clock readings. Backfills happen inside operator execution
// on the shared virtual clock, and whether a row is present is a pure
// function of the query history and ingest history, so schedules stay
// replayable.
package views

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Column-name constructors. The unit separator keeps predicate text from
// colliding with the operator prefix ("filter" + "x" vs "filterx").
const colSep = "\x1f"

// FilterColumn names the verdict column for one filter condition.
func FilterColumn(cond string) string { return "filter" + colSep + cond }

// ClassifyColumn names the label column for one classification target.
func ClassifyColumn(class string) string { return "classify" + colSep + class }

// ExtractColumn names the value column for one extracted field.
func ExtractColumn(field string) string { return "extract" + colSep + field }

// SplitColumn splits a column name into its operator prefix and target
// (predicate text, class word, or field name) for display surfaces.
func SplitColumn(col string) (op, target string) {
	op, target, found := strings.Cut(col, colSep)
	if !found {
		return col, ""
	}
	return op, target
}

// DocHash fingerprints a document's analyzable content. The title is
// length-prefixed so no byte shifted across the title/text boundary can
// collide — a NUL separator alone would collide for titles ending in
// NUL, which FuzzViewKey found.
func DocHash(title, text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strconv.Itoa(len(title))))
	h.Write([]byte{0})
	h.Write([]byte(title))
	h.Write([]byte(text))
	return h.Sum64()
}

// Key renders the storage key of one row, used for audit reporting and
// pinned by FuzzViewKey: stable across runs, injective over (col, id).
func Key(col string, id int) string { return col + colSep + strconv.Itoa(id) }

// Entry is one materialized row: the operator result for one document,
// stamped with the content hash it was computed from.
type Entry struct {
	Hash uint64
	Val  string
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Columns     int   `json:"columns"`
	Rows        int   `json:"rows"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Backfills   int64 `json:"backfills"`
	Invalidated int64 `json:"invalidated"`
}

// HitRate returns hits/(hits+misses), 0 when no reads happened.
func (st Stats) HitRate() float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// ColumnStats describes one column for observability surfaces.
type ColumnStats struct {
	Op     string `json:"op"`     // operator family: filter, classify, extract
	Target string `json:"target"` // predicate text, class word, or field name
	Rows   int    `json:"rows"`
}

// Store holds every materialized column. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	columns map[string]map[int]Entry

	hits        int64
	misses      int64
	backfills   int64
	invalidated int64

	// Serve audit (StrictChecks only): rows served since the last
	// AuditServed call, keyed by Key(col,id) with the hash served. The
	// views.column_fresh invariant replays these against live hashes.
	audit  bool
	served map[string]servedRow
}

type servedRow struct {
	col  string
	id   int
	hash uint64
}

// NewStore returns an empty view store.
func NewStore() *Store {
	return &Store{columns: make(map[string]map[int]Entry)}
}

// SetAudit enables serve auditing for the views.column_fresh invariant.
func (s *Store) SetAudit(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.audit = on
	if on && s.served == nil {
		s.served = make(map[string]servedRow)
	}
}

// Get returns the materialized value for (col, id) if a row exists AND
// its stored content hash matches liveHash. A row computed from stale
// content is never served — it counts as a miss and waits for the
// operator to backfill it from the live document.
func (s *Store) Get(col string, id int, liveHash uint64) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.columns[col][id]
	if !ok || e.Hash != liveHash {
		s.misses++
		return "", false
	}
	s.hits++
	if s.audit {
		s.served[Key(col, id)] = servedRow{col: col, id: id, hash: e.Hash}
	}
	return e.Val, true
}

// Put materializes (or refreshes) one row.
func (s *Store) Put(col string, id int, hash uint64, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.columns[col]
	if !ok {
		m = make(map[int]Entry)
		s.columns[col] = m
	}
	m[id] = Entry{Hash: hash, Val: val}
	s.backfills++
}

// Invalidate drops every row for the given document across all columns
// (called when a document's content changes) and returns the number of
// rows removed. Rows for re-added identical content would have matched
// by hash anyway; dropping keeps the store's resident size honest.
func (s *Store) Invalidate(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for col, m := range s.columns {
		if _, ok := m[id]; ok {
			delete(m, id)
			n++
			if len(m) == 0 {
				delete(s.columns, col)
			}
		}
	}
	if s.served != nil {
		for k, row := range s.served {
			if row.id == id {
				delete(s.served, k)
			}
		}
	}
	s.invalidated += int64(n)
	return n
}

// Covers reports whether every id has a fresh row in col — the
// optimizer's test for costing a column read instead of an LLM scan.
// hashOf returns the live content hash for a document id. Reads here
// are a planning probe, not a serve: counters are untouched.
func (s *Store) Covers(col string, ids []int, hashOf func(int) (uint64, bool)) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.columns[col]
	if !ok {
		return len(ids) == 0
	}
	for _, id := range ids {
		h, ok := hashOf(id)
		if !ok {
			return false
		}
		e, ok := m[id]
		if !ok || e.Hash != h {
			return false
		}
	}
	return true
}

// AuditServed implements the views.column_fresh invariant: every row
// served since the last audit must still match the live content hash of
// its document. It returns one description per violation ("col key=...
// served=... live=...") and clears the audit set. hashOf returns the
// live hash (ok=false for deleted documents, which is a violation too:
// a serve must never outlive its document).
func (s *Store) AuditServed(hashOf func(int) (uint64, bool)) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.served) == 0 {
		return nil
	}
	var bad []string
	for k, row := range s.served {
		live, ok := hashOf(row.id)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: document %d no longer exists", k, row.id))
			continue
		}
		if live != row.hash {
			bad = append(bad, fmt.Sprintf("%s: served hash %x but live document hash is %x", k, row.hash, live))
		}
	}
	s.served = make(map[string]servedRow)
	sort.Strings(bad)
	return bad
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Columns:     len(s.columns),
		Hits:        s.hits,
		Misses:      s.misses,
		Backfills:   s.backfills,
		Invalidated: s.invalidated,
	}
	for _, m := range s.columns {
		st.Rows += len(m)
	}
	return st
}

// Columns lists per-column row counts, sorted by (op, target) so every
// observability surface renders deterministically.
func (s *Store) Columns() []ColumnStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ColumnStats, 0, len(s.columns))
	for col, m := range s.columns {
		op, target := SplitColumn(col)
		out = append(out, ColumnStats{Op: op, Target: target, Rows: len(m)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Target < out[j].Target
	})
	return out
}

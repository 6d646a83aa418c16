package learn

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/automata"
	"repro/internal/jsonlog"
)

// This file implements the persistent half of incremental learning: an
// on-disk, versioned membership-query log plus a model snapshot, shared by
// every run that names the same store key. A CachedOracle attached to a
// Store (UseStore) starts with every logged answer pre-seeded in its prefix
// tree and appends every new live answer, so relearning a target that has
// not changed costs only the queries the equivalence search insists on
// asking live — and a target that has changed is re-queried only where the
// repair machinery proves the log stale. See docs/REGRESSION.md.

// storeFormat and storeVersion identify the query-log format. A log whose
// header names a different format or a newer version is not read (the
// entries are dropped and the file is rewritten), so a downgraded binary
// can never misinterpret a future log as answers.
const (
	storeFormat  = "prognosis-query-log"
	storeVersion = 1
)

// storeEntry is one logged membership query. Entries replay in file order
// with clobber semantics (a later entry for the same word wins), which is
// how CachedOracle.Refresh repairs persist: the corrected answer is simply
// appended and shadows the poisoned one on every future load.
type storeEntry struct {
	In  []string `json:"in"`
	Out []string `json:"out"`
}

// stores deduplicates open Stores by log path: concurrent opens of the
// same key — e.g. a campaign fanning one target across worker counts,
// which deliberately share a store key — get one refcounted instance, so
// two file handles can never write at overlapping offsets or truncate a
// sibling's live appends during load.
var (
	storesMu sync.Mutex
	stores   = map[string]*Store{}
)

// Store is the on-disk query log + model snapshot of one (target,
// configuration) pair: `<key>.log` holds the JSONL membership-query log,
// `<key>.model.json` the last successfully learned hypothesis in the
// unified automata JSON codec. Append and Reset are safe for concurrent
// use; a load tolerates a truncated or corrupted tail (the valid prefix
// survives, the tail is discarded), so a run killed mid-append never
// poisons the next one. The log file is opened in append mode, so even an
// unrelated process sharing the file interleaves whole lines rather than
// overwriting; in-process sharers go further and share one instance (see
// stores).
type Store struct {
	mu      sync.Mutex
	f       *os.File
	id      string // registry key (absolute log path)
	refs    int
	model   string
	entries []storeEntry // every logged entry: read at open, grown by Append
	appendE error        // first append failure, reported by Close
}

// OpenStore opens (or creates) the store for key inside dir, creating dir
// as needed. Opening a key that is already open in this process returns
// the same instance (closed when every opener has closed it). The
// existing query log is loaded and validated: a missing or foreign header
// discards the file, and a corrupted, truncated, or unterminated tail is
// truncated away while every complete entry before it is kept.
func OpenStore(dir, key string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("learn: store dir: %w", err)
	}
	path := filepath.Join(dir, key+".log")
	id, err := filepath.Abs(path)
	if err != nil {
		id = path
	}
	storesMu.Lock()
	defer storesMu.Unlock()
	if s, ok := stores[id]; ok {
		s.mu.Lock()
		s.refs++
		s.mu.Unlock()
		return s, nil
	}
	s := &Store{
		id:    id,
		refs:  1,
		model: filepath.Join(dir, key+".model.json"),
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("learn: open store: %w", err)
	}
	s.f = f
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	stores[id] = s
	return s, nil
}

// load recovers the log's valid prefix (jsonlog.Recover), resetting a
// file whose header is missing, foreign, or from a future version. Lines
// in the canonical form Append writes take the decodeEntry fast path;
// every other line goes to json.Unmarshal, and both answers face the same
// checks.
func (s *Store) load() error {
	syms := make(map[string]string)
	ok, err := jsonlog.Recover(s.f, storeFormat, storeVersion, func(line []byte) bool {
		e, ok := decodeEntry(line, syms)
		if !ok {
			// A separate variable: taking e's address would move it to
			// the heap on the fast path too.
			var slow storeEntry
			if json.Unmarshal(line, &slow) != nil {
				return false
			}
			e = slow
		}
		if len(e.Out) < len(e.In) {
			return false
		}
		s.entries = append(s.entries, e)
		return true
	})
	if err != nil {
		return fmt.Errorf("learn: recover store: %w", err)
	}
	if !ok {
		return jsonlog.Reset(s.f, storeFormat, storeVersion)
	}
	return nil
}

// decodeEntry decodes the canonical line Append writes without
// reflection: exactly {"in":[...],"out":[...]} and a newline, with no
// whitespace and only plain strings (see plainArray). It reports false,
// decoding nothing, for any other line; those are left to json.Unmarshal,
// which gives the same entry for every line accepted here
// (FuzzStoreEntryDecode). Symbols are interned through syms, so a log's
// repeated symbols share one string, and In and Out are carved from one
// allocation. line is not retained.
func decodeEntry(line []byte, syms map[string]string) (storeEntry, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"in":`))
	if !ok {
		return storeEntry{}, false
	}
	in := rest
	nIn, rest, ok := plainArray(rest)
	if !ok {
		return storeEntry{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"out":`)); !ok {
		return storeEntry{}, false
	}
	out := rest
	nOut, rest, ok := plainArray(rest)
	if !ok || string(rest) != "}\n" {
		return storeEntry{}, false
	}
	strs := make([]string, nIn+nOut)
	fillArray(strs[:nIn], in, syms)
	fillArray(strs[nIn:], out, syms)
	return storeEntry{In: strs[:nIn:nIn], Out: strs[nIn:]}, true
}

// plainArray validates the JSON array of plain strings that b starts
// with, returning its length and the bytes after it. A plain string holds
// only printable ASCII other than '"' and '\\': no escapes, no control
// bytes, nothing above 0x7e, so JSON reads its bytes verbatim.
func plainArray(b []byte) (n int, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != '[' {
		return 0, nil, false
	}
	if b[1] == ']' {
		return 0, b[2:], true
	}
	i := 1
	for {
		if i == len(b) || b[i] != '"' {
			return 0, nil, false
		}
		for i++; i < len(b) && b[i] != '"'; i++ {
			if c := b[i]; c < 0x20 || c > 0x7e || c == '\\' {
				return 0, nil, false
			}
		}
		if i++; i >= len(b) {
			return 0, nil, false
		}
		n++
		switch b[i] {
		case ']':
			return n, b[i+1:], true
		case ',':
			i++
		default:
			return 0, nil, false
		}
	}
}

// fillArray interns the strings of an array plainArray accepted (b starts
// at its '[') into dst, which has room for exactly those strings. Plain
// strings hold no '"', so each one runs from one quote to the next.
func fillArray(dst []string, b []byte, syms map[string]string) {
	for k := range dst {
		start := bytes.IndexByte(b, '"') + 1
		end := start + bytes.IndexByte(b[start:], '"')
		sym, ok := syms[string(b[start:end])]
		if !ok {
			sym = string(b[start:end])
			syms[sym] = sym
		}
		dst[k] = sym
		b = b[end+1:]
	}
}

// Entries returns the number of logged queries (loaded plus appended).
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Append logs one answered query. Each entry is written as a single Write
// of one complete line in append mode, so concurrent appenders interleave
// at line granularity and a crash loses at most the final partial line.
func (s *Store) Append(word, out []string) error {
	if len(out) < len(word) {
		return fmt.Errorf("%w: %d inputs, %d outputs", ErrIncompleteOutput, len(word), len(out))
	}
	line, err := jsonlog.Marshal(storeEntry{In: word, Out: out[:len(word)]})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		if s.appendE == nil {
			s.appendE = err
		}
		return err
	}
	s.entries = append(s.entries, storeEntry{In: word, Out: out[:len(word)]})
	return nil
}

// Reset discards every logged query (the model snapshot is untouched). It
// is the persistent half of CachedOracle.Clear: entries that survived a
// cache drop would resurrect exactly the answers the drop was repairing.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	return jsonlog.Reset(s.f, storeFormat, storeVersion)
}

// SaveModel snapshots the learned hypothesis atomically (write to a
// temporary file, then rename), so a reader never observes a half-written
// model.
func (s *Store) SaveModel(m *automata.Mealy) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.model + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.model)
}

// LoadModel reads the model snapshot; (nil, nil) when none has been saved
// yet. A snapshot that fails to decode is treated as absent rather than
// fatal: the warm start degrades to a cold one.
func (s *Store) LoadModel() (*automata.Mealy, error) {
	data, err := os.ReadFile(s.model)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var m automata.Mealy
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil
	}
	return &m, nil
}

// Close releases one reference to the store; the log file closes when the
// last opener is done. It reports the first append failure the store
// swallowed mid-run (appends are best-effort during learning: a full disk
// must not abort a run whose answers are still good).
func (s *Store) Close() error {
	storesMu.Lock()
	s.mu.Lock()
	s.refs--
	last := s.refs == 0
	if last {
		delete(stores, s.id)
	}
	appendE := s.appendE
	s.mu.Unlock()
	storesMu.Unlock()
	var err error
	if last {
		err = s.f.Close()
	}
	if appendE != nil {
		return appendE
	}
	return err
}

// UseStore attaches st to the cached oracle: every entry logged in the
// store is pre-seeded into the prefix-tree cache (in log order, later
// entries shadowing earlier ones — see storeEntry), and from now on every
// answer the cache accepts from the live oracle is appended to the log.
// Refresh overwrites the logged path by appending the corrected answer;
// Clear resets the log alongside the cache. Attach before the first query.
func (c *CachedOracle) UseStore(st *Store) {
	st.mu.Lock()
	entries := st.entries
	st.mu.Unlock()
	for _, e := range entries {
		c.cache.refresh(e.In, e.Out)
	}
	c.store = st
}

// persist logs one accepted answer to the attached store, if any. Append
// failures are swallowed here (and surfaced by Store.Close): persistence
// is an accelerator, never a reason to fail a live query that succeeded.
func (c *CachedOracle) persist(word, out []string) {
	if c.store != nil && len(word) > 0 {
		_ = c.store.Append(word, out)
	}
}

package learn

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/jsonlog"
)

// storeHeader is the first line of every query log.
const storeHeader = `{"format":"prognosis-query-log","version":1}` + "\n"

// unmarshalEntry is the reference decoder: what load did for every line
// before the fast path existed, and still does for the lines it declines.
func unmarshalEntry(line []byte) (storeEntry, bool) {
	var e storeEntry
	return e, json.Unmarshal(line, &e) == nil
}

// sameEntry compares entries by content (a nil and an empty slice are
// the same word).
func sameEntry(a, b storeEntry) bool {
	return slices.Equal(a.In, b.In) && slices.Equal(a.Out, b.Out)
}

// marshalPlain reports whether jsonlog.Marshal writes c verbatim inside a
// string: printable ASCII other than the quote, the backslash and the
// three bytes encoding/json escapes for HTML safety.
func marshalPlain(c byte) bool {
	return c >= 0x20 && c <= 0x7e && strings.IndexByte(`"\<>&`, c) < 0
}

// marshalPlainSymbols splits b at every byte marshalPlain rejects, so each
// piece (empty ones included) is a symbol Append writes verbatim.
func marshalPlainSymbols(b []byte) []string {
	syms := []string{""}
	for _, c := range b {
		if marshalPlain(c) {
			syms[len(syms)-1] += string(c)
		} else {
			syms = append(syms, "")
		}
	}
	return syms
}

var entrySeeds = []string{
	`{"in":["INITIAL(?,?)[CRYPTO]"],"out":["{INITIAL(?,?)[ACK,CRYPTO],HANDSHAKE(?,?)[CRYPTO]}"]}` + "\n",
	`{"in":["a","b"],"out":["x","y"]}` + "\n",
	`{"in":[],"out":[]}` + "\n",
	`{"in":[""],"out":["",""]}` + "\n",
	`{"in":["a<b"],"out":["x"]}` + "\n",
	`{"in":["a\"b"],"out":["x"]}` + "\n",
	`{"in":["a\u0041"],"out":["x\\y"]}` + "\n",
	`{"in": ["a"], "out": ["x"]}` + "\n",
	`{"IN":["a"],"Out":["x"]}` + "\n",
	`{"out":["x"],"in":["a"]}` + "\n",
	`{"in":["a"],"out":["x"]}` + "\r\n",
	`{"in":null,"out":null}` + "\n",
	`{"in":["a"],"in":["b"],"out":["x"]}` + "\n",
	`{"in":["a"],"out":["x"]}x` + "\n",
	`{"in":["a",],"out":["x"]}` + "\n",
	`{"in":["a"],"out":["x"]`,
	"{\"in\":[\"\xff\"],\"out\":[\"x\"]}\n",
	"{\"in\":[\"\x7f\"],\"out\":[\"\t\"]}\n",
}

// FuzzStoreEntryDecode pins the fast path to encoding/json: a line
// decodeEntry accepts must decode to the same entry under json.Unmarshal,
// and every line Append writes for symbols it does not escape must take
// the fast path, so the fast path cannot silently go dead.
func FuzzStoreEntryDecode(f *testing.F) {
	for _, s := range entrySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		syms := map[string]string{}
		if got, ok := decodeEntry(line, syms); ok {
			want, ok := unmarshalEntry(line)
			if !ok {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it", line)
			}
			if !sameEntry(got, want) {
				t.Fatalf("fast path decoded %q as %+v, json.Unmarshal as %+v", line, got, want)
			}
		}

		words := marshalPlainSymbols(line)
		e := storeEntry{In: words[:len(words)/2], Out: words[len(words)/2:]}
		canon, err := jsonlog.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeEntry(canon, syms)
		if !ok {
			t.Fatalf("fast path declined the canonical line %q", canon)
		}
		if !sameEntry(got, e) {
			t.Fatalf("fast path decoded %q as %+v, want %+v", canon, got, e)
		}
	})
}

// FuzzStoreOpen: OpenStore over arbitrary file bytes never panics or
// fails, and every entry it loads is json.Unmarshal of the matching line
// of the log it leaves behind.
func FuzzStoreOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"format":"other","version":1}` + "\n" + entrySeeds[1]))
	f.Add([]byte(`{"format":"prognosis-query-log","version":2}` + "\n"))
	var all string
	for _, s := range entrySeeds {
		f.Add([]byte(storeHeader + s + entrySeeds[1]))
		all += s
	}
	f.Add([]byte(storeHeader + all))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		entries := st.entries
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) && string(kept) != storeHeader {
			t.Fatalf("recovered log %q is neither a prefix of the input nor a fresh header", kept)
		}
		lines := bytes.SplitAfter(kept, []byte("\n"))
		lines = lines[1 : len(lines)-1] // drop the header and the empty tail
		if len(lines) != len(entries) {
			t.Fatalf("loaded %d entries from a log of %d records", len(entries), len(lines))
		}
		for i, line := range lines {
			want, ok := unmarshalEntry(line)
			if !ok || len(want.Out) < len(want.In) {
				t.Fatalf("kept record %d (%q) is not a valid entry", i, line)
			}
			if !sameEntry(entries[i], want) {
				t.Fatalf("entry %d loaded as %+v, json.Unmarshal gives %+v", i, entries[i], want)
			}
		}
	})
}

// TestStoreRecoversAtEveryCrashPoint cuts a real log at every byte
// offset, as a crash mid-write would, and checks the recovery contract at
// each: the load keeps exactly the complete records before the cut,
// truncates the file to that boundary, and an append afterwards reloads
// as that prefix plus the new entry.
func TestStoreRecoversAtEveryCrashPoint(t *testing.T) {
	src := t.TempDir()
	truth := randomTotalMealy(rand.New(rand.NewSource(1)), 8,
		[]string{"SYN", "ACK", "FIN", "RST"}, []string{"SYN+ACK", "ACK", "NIL", "RST"})
	learnWithStore(t, truth, src, "real", nil)
	st, err := OpenStore(src, "real")
	if err != nil {
		t.Fatal(err)
	}
	// Symbols encoding/json escapes take the fallback decoder; give the
	// log a few so crash points land in both kinds of record.
	for _, w := range [][]string{{"a<b", "SYN"}, {"tab\there"}, {"ünï"}} {
		if err := st.Append(w, append(slices.Clone(w), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, "real.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(full, []byte(storeHeader)) {
		t.Fatalf("log does not start with the store header: %q", full[:min(len(full), 80)])
	}
	// ends[i] is the offset just past record i; want[i] is its entry.
	var ends []int
	var want []storeEntry
	for off := len(storeHeader); off < len(full); {
		n := bytes.IndexByte(full[off:], '\n') + 1
		e, ok := unmarshalEntry(full[off : off+n])
		if !ok {
			t.Fatalf("recorded log has an undecodable record at %d", off)
		}
		off += n
		ends, want = append(ends, off), append(want, e)
	}
	t.Logf("log: %d bytes, %d records", len(full), len(want))

	dir := t.TempDir()
	path := filepath.Join(dir, "cut.log")
	fresh := storeEntry{In: []string{"fresh"}, Out: []string{"z"}}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0 // complete records before the cut
		for k < len(ends) && ends[k] <= cut {
			k++
		}
		boundary := len(storeHeader)
		if k > 0 {
			boundary = ends[k-1]
		}

		st, err := OpenStore(dir, "cut")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !entriesEqual(st.entries, want[:k]) {
			t.Fatalf("cut %d: loaded %d entries, want the %d complete records", cut, len(st.entries), k)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, full[:boundary]) {
			t.Fatalf("cut %d: file holds %d bytes after recovery, want the %d-byte record boundary", cut, len(got), boundary)
		}
		if err := st.Append(fresh.In, fresh.Out); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st, err = OpenStore(dir, "cut")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if !entriesEqual(st.entries, append(slices.Clone(want[:k]), fresh)) {
			t.Fatalf("cut %d: reload after append has %d entries, want %d plus the new one", cut, len(st.entries), k)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func entriesEqual(a, b []storeEntry) bool {
	return slices.EqualFunc(a, b, sameEntry)
}

// TestStoreLoadInternsSymbols: a load shares one string per distinct
// symbol across entries, and caps each entry's In, so an append to it
// cannot write into the Out carved from the same array.
func TestStoreLoadInternsSymbols(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, "intern")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append([]string{"SYN", "ACK"}, []string{"SYN+ACK", "NIL"}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st, err = OpenStore(dir, "intern")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.entries) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(st.entries))
	}
	first := st.entries[0]
	for _, e := range st.entries[1:] {
		if unsafe.StringData(e.In[0]) != unsafe.StringData(first.In[0]) ||
			unsafe.StringData(e.Out[1]) != unsafe.StringData(first.Out[1]) {
			t.Fatal("repeated symbols were not interned")
		}
	}
	if cap(first.In) != len(first.In) {
		t.Fatalf("In has capacity %d beyond its %d symbols", cap(first.In), len(first.In))
	}
}

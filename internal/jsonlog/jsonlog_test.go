package jsonlog

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const (
	testFormat  = "test-log"
	testVersion = 2
)

type record struct {
	V string `json:"v"`
}

// logFile writes content to a fresh file and opens it the way every
// caller does: read-write, in append mode.
func logFile(t *testing.T, content string) (*os.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, path
}

func headerLine(format string, version int) string {
	b, _ := json.Marshal(header{Format: format, Version: version})
	return string(b) + "\n"
}

func line(t *testing.T, v string) string {
	t.Helper()
	b, err := Marshal(record{V: v})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// recoverAll runs Recover accepting every line that decodes as a record
// and returns the decoded values.
func recoverAll(t *testing.T, f *os.File) (bool, []string) {
	t.Helper()
	var got []string
	ok, err := Recover(f, testFormat, testVersion, func(l []byte) bool {
		var r record
		if json.Unmarshal(l, &r) != nil {
			return false
		}
		got = append(got, r.V)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ok, got
}

func TestRecoverRejectsBadHeader(t *testing.T) {
	for _, tc := range []struct{ name, content string }{
		{"empty", ""},
		{"missing", line(t, "a")},
		{"unterminated", strings.TrimSuffix(headerLine(testFormat, testVersion), "\n")},
		{"foreign", headerLine("other-log", testVersion) + line(t, "a")},
		{"future", headerLine(testFormat, testVersion+1) + line(t, "a")},
		{"garbage", "\x00\xff not json\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := logFile(t, tc.content)
			if ok, got := recoverAll(t, f); ok || len(got) != 0 {
				t.Fatalf("headerOK=%v with %d records, want false and none", ok, len(got))
			}
		})
	}
	// An older version is still read.
	f, _ := logFile(t, headerLine(testFormat, testVersion-1)+line(t, "a"))
	if ok, got := recoverAll(t, f); !ok || len(got) != 1 {
		t.Fatalf("older version: headerOK=%v with %d records, want true and 1", ok, len(got))
	}
}

func TestRecoverDropsUnterminatedLine(t *testing.T) {
	valid := headerLine(testFormat, testVersion) + line(t, "a") + line(t, "b")
	// The last record parses, but a crash took its newline.
	f, path := logFile(t, valid+strings.TrimSuffix(line(t, "c"), "\n"))
	ok, got := recoverAll(t, f)
	if !ok || strings.Join(got, ",") != "a,b" {
		t.Fatalf("headerOK=%v records %v, want true and [a b]", ok, got)
	}
	assertFile(t, path, valid)
}

func TestRecoverStopsAtRejectedLine(t *testing.T) {
	valid := headerLine(testFormat, testVersion) + line(t, "a")
	f, path := logFile(t, valid+"{not json}\n"+line(t, "b"))
	ok, got := recoverAll(t, f)
	if !ok || strings.Join(got, ",") != "a" {
		t.Fatalf("headerOK=%v records %v, want true and [a]: nothing after the bad line", ok, got)
	}
	assertFile(t, path, valid)
}

// TestRecoverLongLine: a record longer than the read buffer is passed to
// accept whole, between two ordinary ones.
func TestRecoverLongLine(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", 200<<10/16)
	content := headerLine(testFormat, testVersion) + line(t, "a") + line(t, long) + line(t, "b")
	f, path := logFile(t, content)
	var lines []string
	ok, err := Recover(f, testFormat, testVersion, func(l []byte) bool {
		lines = append(lines, string(l))
		return true
	})
	if err != nil || !ok {
		t.Fatalf("Recover: headerOK=%v err=%v", ok, err)
	}
	if want := []string{line(t, "a"), line(t, long), line(t, "b")}; !slices.Equal(lines, want) {
		t.Fatalf("got %d lines of %d bytes, want the 3 records of %d bytes", len(lines), len(strings.Join(lines, "")), len(strings.Join(want, "")))
	}
	assertFile(t, path, content)
}

// TestRecoverLeavesFileReadyForAppend: after recovery the next write
// lands right after the last good record, and a second recovery reads it.
func TestRecoverLeavesFileReadyForAppend(t *testing.T) {
	valid := headerLine(testFormat, testVersion) + line(t, "a")
	f, path := logFile(t, valid+`{"v":"tru`)
	recoverAll(t, f)
	if off, err := f.Seek(0, io.SeekCurrent); err != nil || off != int64(len(valid)) {
		t.Fatalf("positioned at %d (%v), want %d", off, err, len(valid))
	}
	if _, err := f.Write([]byte(line(t, "b"))); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, valid+line(t, "b"))
	if ok, got := recoverAll(t, f); !ok || strings.Join(got, ",") != "a,b" {
		t.Fatalf("after append: headerOK=%v records %v, want true and [a b]", ok, got)
	}
}

func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("file holds %d bytes, want %d:\n got %.120q\nwant %.120q", len(got), len(want), got, want)
	}
}

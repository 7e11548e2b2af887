package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openClean(t *testing.T, dir string, opts Options) (*Journal, *OpenResult) {
	t.Helper()
	j, res, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, res
}

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func tailStrings(res *OpenResult) []string {
	out := make([]string, 0, len(res.Tail))
	for _, r := range res.Tail {
		out = append(out, string(r.Data))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{})
	want := []string{"one", "two", "three"}
	appendAll(t, j, want...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, res := openClean(t, dir, Options{})
	defer j2.Close()
	got := tailStrings(res)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i, r := range res.Tail {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	if res.TornBytes != 0 {
		t.Errorf("clean journal reported %d torn bytes", res.TornBytes)
	}
	// The reopened journal keeps appending where the first left off.
	seq, err := j2.Append([]byte("four"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Errorf("resumed append got seq %d, want 4", seq)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for cut := 1; cut < headerBytes+4; cut++ {
		dir := t.TempDir()
		j, _ := openClean(t, dir, Options{})
		appendAll(t, j, "aaaa", "bbbb", "cccc")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// Chop `cut` bytes off the tail: a torn final record.
		path := filepath.Join(dir, fileName)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		j2, res := openClean(t, dir, Options{})
		if got := tailStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"aaaa", "bbbb"}) {
			t.Fatalf("cut=%d: replayed %v, want [aaaa bbbb]", cut, got)
		}
		if res.TornBytes == 0 {
			t.Errorf("cut=%d: torn truncation not reported", cut)
		}
		// The truncated journal accepts new appends at the right sequence.
		seq, err := j2.Append([]byte("c2"))
		if err != nil {
			t.Fatal(err)
		}
		if seq != 3 {
			t.Errorf("cut=%d: next seq %d, want 3", cut, seq)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		_, res2 := openClean(t, dir, Options{})
		if got := tailStrings(res2); fmt.Sprint(got) != fmt.Sprint([]string{"aaaa", "bbbb", "c2"}) {
			t.Fatalf("cut=%d: after repair+append replayed %v", cut, got)
		}
	}
}

func TestHookCrashBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	crashAt := uint64(3)
	hook := func(op Op, n uint64) error {
		if op == OpAppend && n == crashAt {
			return errors.New("injected crash")
		}
		return nil
	}
	j, _ := openClean(t, dir, Options{Hook: hook})
	appendAll(t, j, "r1", "r2")
	if _, err := j.Append([]byte("r3")); err == nil {
		t.Fatal("append survived the injected crash")
	}
	// The journal is broken: nothing more goes in.
	if _, err := j.Append([]byte("r4")); err == nil {
		t.Fatal("broken journal accepted an append")
	}
	_ = j.Close()
	_, res := openClean(t, dir, Options{})
	if got := tailStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"r1", "r2"}) {
		t.Fatalf("replayed %v, want [r1 r2]", got)
	}
}

func TestHookTornWrite(t *testing.T) {
	dir := t.TempDir()
	hook := func(op Op, n uint64) error {
		if op == OpAppend && n == 3 {
			return fmt.Errorf("mid-write death: %w", ErrTornWrite)
		}
		return nil
	}
	j, _ := openClean(t, dir, Options{Hook: hook})
	appendAll(t, j, "r1", "r2")
	if _, err := j.Append([]byte("r3")); err == nil {
		t.Fatal("torn append reported success")
	}
	_ = j.Close()
	// The file holds half a frame; Open must truncate it away.
	_, res := openClean(t, dir, Options{})
	if got := tailStrings(res); fmt.Sprint(got) != fmt.Sprint([]string{"r1", "r2"}) {
		t.Fatalf("replayed %v, want [r1 r2]", got)
	}
	if res.TornBytes == 0 {
		t.Error("torn bytes not reported")
	}
}

func TestHookFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	hook := func(op Op, n uint64) error {
		if op == OpSync && n == 2 {
			return errors.New("EIO")
		}
		return nil
	}
	j, _ := openClean(t, dir, Options{Hook: hook})
	appendAll(t, j, "r1")
	if _, err := j.Append([]byte("r2")); err == nil {
		t.Fatal("append with failed fsync reported success")
	}
	if _, err := j.Append([]byte("r3")); err == nil {
		t.Fatal("journal not broken after fsync failure")
	}
	_ = j.Close()
	// r2 hit the file (page cache) but was never synced: both the
	// record-present and record-lost crash outcomes must replay cleanly.
	_, res := openClean(t, dir, Options{})
	got := tailStrings(res)
	if fmt.Sprint(got) != fmt.Sprint([]string{"r1", "r2"}) && fmt.Sprint(got) != fmt.Sprint([]string{"r1"}) {
		t.Fatalf("replayed %v, want [r1 r2] or [r1]", got)
	}
}

func TestEmptyAndOversizeRecordsRefused(t *testing.T) {
	j, _ := openClean(t, t.TempDir(), Options{})
	defer j.Close()
	if _, err := j.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := j.Append(bytes.Repeat([]byte("x"), maxRecordBytes+1)); err == nil {
		t.Error("oversize record accepted")
	}
	// Neither refusal breaks the journal.
	if _, err := j.Append([]byte("ok")); err != nil {
		t.Errorf("journal broken by refused records: %v", err)
	}
}

func TestClosedJournalRefusesWork(t *testing.T) {
	j, _ := openClean(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := j.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir, Options{})
	const n = 64
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := j.Append([]byte(fmt.Sprintf("rec-%02d", i)))
			done <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, res := openClean(t, dir, Options{})
	if len(res.Tail) != n {
		t.Fatalf("replayed %d records, want %d", len(res.Tail), n)
	}
	seen := map[string]bool{}
	for _, r := range res.Tail {
		seen[string(r.Data)] = true
	}
	if len(seen) != n {
		t.Fatalf("replay lost records: %d distinct of %d", len(seen), n)
	}
}

// readDirFiles maps every file in dir to its contents.
func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestOpenRefusesDamageAndLegacyLayouts feeds Open directories it must
// refuse — a record out of sequence, and the older formats' snapshot,
// second segment and single segment — and requires the right error with
// every file left byte-unchanged. The single segment ends in a torn frame,
// so a refusal that came after torn-tail recovery would show as a change.
func TestOpenRefusesDamageAndLegacyLayouts(t *testing.T) {
	frames := func(seqs ...uint64) string {
		var b bytes.Buffer
		for _, s := range seqs {
			b.Write(frameRecord(s, []byte(fmt.Sprintf("r%d", s))))
		}
		return b.String()
	}
	cases := []struct {
		name  string
		files map[string]string
		want  error
		names string // the file the error must name
	}{
		{"sequence jump", map[string]string{fileName: frames(1, 2, 4)}, ErrCorrupt, fileName},
		{"snapshot", map[string]string{
			"snap-0000000000000002.snap": frames(2),
			"wal-0000000000000003.seg":   frames(3),
		}, ErrLegacyLayout, "snap-0000000000000002.snap"},
		{"second segment", map[string]string{
			fileName:                   frames(1, 2),
			"wal-0000000000000003.seg": frames(3),
		}, ErrLegacyLayout, "wal-0000000000000003.seg"},
		{"single segment", map[string]string{
			"wal-0000000000000001.seg": frames(1, 2) + frames(3)[:headerBytes],
		}, ErrLegacyLayout, "wal-0000000000000001.seg"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := Open(dir, Options{})
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("open error %v, want %v naming %s", err, tc.want, tc.names)
			}
			if got := readDirFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(tc.files) {
				t.Fatalf("refused open changed the directory:\n got %q\nwant %q", got, tc.files)
			}
		})
	}
}

package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// writeReference is the encoding/json span-file writer that Write's
// hand-written appender replaced. The tests hold Write to its bytes.
func writeReference(w io.Writer, hdr Header, spans []TxSpan) error {
	hdr.Schema = Schema
	hdr.Spans = len(spans)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// goldenLines returns the lines of the core package's NDJSON span
// golden, the corpus seed for the reader fuzz target.
func goldenLines(tb testing.TB) []string {
	tb.Helper()
	b, err := os.ReadFile("../core/testdata/spans_golden.ndjson")
	if err != nil {
		tb.Fatal(err)
	}
	return strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
}

// FuzzWriteMatchesJSON holds Write byte-identical to encoding/json on
// arbitrary strings in every string field (HTML-escaped bytes, quotes,
// control bytes, invalid UTF-8, U+2028), nil versus empty segment
// lists, zero and non-zero Dropped, out-of-range causes, and negative
// times.
func FuzzWriteMatchesJSON(f *testing.F) {
	f.Add("100%-R", "KMEANS", "ReadReq", "h>1", uint8(2), uint64(0), int64(7), uint8(1), uint8(3))
	f.Add("", "", "", "", uint8(0), uint64(5), int64(-1), uint8(0), uint8(0))
	f.Add("<a&b>", `"q"\`, "\x00\x1f\t\n", "\xff\xfe", uint8(1), uint64(1), int64(-1<<63), uint8(255), uint8(200))
	f.Add("  ", "é\x7f", "\u2028v3\u2029", "1>q1&", uint8(2), uint64(1<<63), int64(1<<62), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, label, workload, kind, loc string, segMode uint8, dropped uint64, at int64, vc, cause uint8) {
		hdr := Header{Label: label, Workload: workload, Seed: uint64(at), Stride: dropped % 7, Dropped: dropped}
		var segs []Seg
		switch segMode % 3 {
		case 1:
			segs = []Seg{}
		case 2:
			segs = []Seg{
				{Cause: Cause(cause), Loc: loc, VC: packet.VC(vc), At: sim.Time(at), Dur: sim.Time(-at)},
				{Cause: Cause(cause % uint8(NumCauses)), Loc: kind, At: sim.Time(at), Dur: 1},
			}
		}
		spans := []TxSpan{
			{ID: dropped, Kind: kind, Addr: uint64(at), Dst: int32(at), Injected: sim.Time(at), Completed: sim.Time(-at), Segs: segs},
			{Kind: loc, Segs: []Seg{{Loc: label}}},
		}
		var got, want bytes.Buffer
		if err := Write(&got, hdr, spans); err != nil {
			t.Fatal(err)
		}
		if err := writeReference(&want, hdr, spans); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Write differs from encoding/json\n got: %q\nwant: %q", got.String(), want.String())
		}
	})
}

// FuzzRead: the reader never panics on arbitrary input, and anything it
// accepts survives Write then Read unchanged.
func FuzzRead(f *testing.F) {
	lines := goldenLines(f)
	f.Add(lines[0])
	for _, l := range lines[1:6] {
		f.Add(lines[0] + l)
	}
	f.Add(strings.Join(lines[len(lines)-3:], ""))
	f.Add(lines[0] + "\n\r\n" + lines[len(lines)-1])
	f.Add(`{"schema":"memnet/spans/v1","spans":1}` + "\n" + `{"id":1,"segs":[{"c":"warp.drive","l":"h>1","vc":0,"at":1,"d":2}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		hdr, spans, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, hdr, spans); err != nil {
			t.Fatal(err)
		}
		hdr2, spans2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a written file: %v\n%s", err, buf.String())
		}
		hdr.Spans = len(spans) // Write fills the count in
		if hdr2 != hdr {
			t.Fatalf("header changed in round trip: %+v -> %+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(spans2, spans) {
			t.Fatalf("spans changed in round trip:\n%+v\n%+v", spans, spans2)
		}
	})
}

// TestReadLongLineNamesLine: a line past the reader's 16 MiB limit is
// reported with its line number like every other Read error.
func TestReadLongLineNamesLine(t *testing.T) {
	in := `{"schema":"memnet/spans/v1","spans":1}` + "\n" + strings.Repeat("x", 1<<24+1) + "\n"
	_, _, err := Read(strings.NewReader(in))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Read error %v, want bufio.ErrTooLong", err)
	}
	if !strings.HasPrefix(err.Error(), "span: line 2: ") {
		t.Errorf("Read error %q does not name line 2", err)
	}
}

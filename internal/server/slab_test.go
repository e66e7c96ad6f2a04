package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenValues are the float64s whose text rendering differs most easily
// between formatters: signed zero, the non-finite values, exponent
// switch-over, the smallest subnormal, a classic rounding case and the
// first integer float64 cannot hold (2^53+1 rounds to 2^53).
var goldenValues = []float64{
	math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e21, 5e-324, 0.1 + 0.2, float64(1<<53 + 1), 7,
}

// fmtJoin and fmtWriteTable are the text renderer as it was written with
// fmt: the golden reference the allocation-free renderer must match byte
// for byte.
func fmtJoin(coords []int) string {
	if len(coords) == 0 {
		return "-"
	}
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

func fmtWriteTable(w *bytes.Buffer, coordsOf [][]int, vals []float64) {
	fmt.Fprintf(w, "OK %d\n", len(vals))
	for i, v := range vals {
		fmt.Fprintf(w, "%s %g\n", fmtJoin(coordsOf[i]), v)
	}
	fmt.Fprintln(w, ".")
}

func render(t *testing.T, tbl Result) string {
	t.Helper()
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	NewBackend(nil).writeTable(w, tbl)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestTextRendererMatchesFmt(t *testing.T) {
	// A 3x3 slab holding the golden values, at result coordinates.
	sl := &Slab{TableShape: []int{3, 3}, Lo: []int{0, 0}, Hi: []int{3, 3}, Data: goldenValues}
	var want bytes.Buffer
	var coords [][]int
	for i := range goldenValues {
		coords = append(coords, []int{i / 3, i % 3})
	}
	fmtWriteTable(&want, coords, goldenValues)
	if got := render(t, sl); got != want.String() {
		t.Fatalf("slab rendering differs from fmt:\n got %q\nwant %q", got, want.String())
	}

	// A partial slab renders its own cells at result coordinates.
	part := &Slab{TableShape: []int{4, 5}, Lo: []int{1, 2}, Hi: []int{3, 4}, Data: goldenValues[:4]}
	want.Reset()
	fmtWriteTable(&want, [][]int{{1, 2}, {1, 3}, {2, 2}, {2, 3}}, goldenValues[:4])
	if got := render(t, part); got != want.String() {
		t.Fatalf("partial slab rendering:\n got %q\nwant %q", got, want.String())
	}

	// A 0-D table is one "-" row; an empty slab is "OK 0" and the dot.
	want.Reset()
	fmtWriteTable(&want, [][]int{nil}, []float64{math.Inf(-1)})
	if got := render(t, &Slab{TableShape: []int{}, Lo: []int{}, Hi: []int{}, Data: []float64{math.Inf(-1)}}); got != want.String() {
		t.Fatalf("0-D rendering %q, want %q", got, want.String())
	}
	empty := &Slab{TableShape: []int{4}, Lo: []int{2}, Hi: []int{2}}
	if got := render(t, empty); got != "OK 0\n.\n" {
		t.Fatalf("empty slab rendering %q", got)
	}

	// A plain library table goes through At over every cell.
	cube := testCube(t)
	tbl, err := cube.GroupBy("item", "branch")
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	var vals []float64
	coords = nil
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			coords = append(coords, []int{i, j})
			vals = append(vals, tbl.At(i, j))
		}
	}
	fmtWriteTable(&want, coords, vals)
	if got := render(t, tbl); got != want.String() {
		t.Fatalf("table rendering differs from fmt:\n got %q\nwant %q", got, want.String())
	}
}

func TestParseRowsRoundTripsGoldenValues(t *testing.T) {
	sl := &Slab{TableShape: []int{3, 3}, Lo: []int{0, 0}, Hi: []int{3, 3}, Data: goldenValues}
	text := render(t, sl)
	r := bufio.NewReader(strings.NewReader(text))
	header, _ := r.ReadString('\n')
	n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(header, "OK")))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseRows(r, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want := goldenValues[i]
		if math.Float64bits(row.Value) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(row.Value)) {
			t.Fatalf("row %d value %v, want %v", i, row.Value, want)
		}
		if row.Coords[0] != i/3 || row.Coords[1] != i%3 {
			t.Fatalf("row %d coords %v", i, row.Coords)
		}
	}
	for _, bad := range []string{"1,2\n.\n", "1,x 3\n.\n", "1,2 3 4\n.\n", "1,,2 3\n.\n", " 3\n.\n", "1 x\n.\n"} {
		if _, err := parseRows(bufio.NewReader(strings.NewReader(bad)), 1); err == nil {
			t.Fatalf("malformed rows %q accepted", bad)
		}
	}
}

func TestSlabWireRoundTrip(t *testing.T) {
	cases := []*Slab{
		{TableShape: []int{3, 3}, Lo: []int{0, 0}, Hi: []int{3, 3}, Data: goldenValues},
		{TableShape: []int{4, 5, 2}, Lo: []int{1, 2, 0}, Hi: []int{3, 4, 1}, Data: []float64{1, 2, 3, 4}},
		{TableShape: []int{}, Lo: []int{}, Hi: []int{}, Data: []float64{42}},
		{TableShape: []int{}, Lo: []int{}, Hi: []int{}},
		{TableShape: []int{8}, Lo: []int{3}, Hi: []int{3}},
	}
	for _, sl := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		writeSlab(w, sl)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(&buf)
		header, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		payload, err := parseOK(header)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSlab(r, payload)
		if err != nil {
			t.Fatalf("decode %q: %v", header, err)
		}
		if fmt.Sprint(got.TableShape, got.Lo, got.Hi) != fmt.Sprint(sl.TableShape, sl.Lo, sl.Hi) || len(got.Data) != len(sl.Data) {
			t.Fatalf("round trip of %+v gave %+v", sl, got)
		}
		for i := range sl.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(sl.Data[i]) {
				t.Fatalf("cell %d: %v, want %v", i, got.Data[i], sl.Data[i])
			}
		}
		if r.Buffered() != 0 {
			t.Fatalf("decoder left %d bytes unread", r.Buffered())
		}
	}
}

func TestSlabResult(t *testing.T) {
	sl := &Slab{TableShape: []int{4, 5}, Lo: []int{1, 2}, Hi: []int{3, 4}, Data: []float64{5, 9, 9, 1}}
	if sl.Size() != 4 || sl.At(2, 2) != 9 || sl.At(1, 3) != 9 || sl.At(2, 3) != 1 {
		t.Fatalf("slab lookups wrong: %+v", sl)
	}
	top := sl.Top(3)
	if len(top) != 3 || fmt.Sprint(top[0].Coords, top[1].Coords, top[2].Coords) != "[1 3] [2 2] [1 2]" {
		t.Fatalf("Top(3) = %v, want ties in ascending coordinates", top)
	}
	if _, err := atSafe(sl, []int{0, 2}); err == nil {
		t.Fatal("lookup outside the slab did not fail")
	}
}

// TestShardNodeAnswersSlabs: a shard server with a block answers text
// GROUPBY/QUERY and binary SLAB from the same slab, at result
// coordinates; a server with no block refuses SLAB.
func TestShardNodeAnswersSlabs(t *testing.T) {
	cube := testCube(t) // item:6 branch:4
	srv := New(cube)
	srv.SetShardInfo(ShardInfo{ID: 1, Op: "sum", Block: "[3:6,0:4]", Lo: []int{3, 0}, Hi: []int{6, 4}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.GroupBy("item")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := cube.GroupBy("item")
	if len(rows) != 3 || rows[0].Coords[0] != 3 || rows[0].Value != full.At(3) {
		t.Fatalf("text GROUPBY item on block [3:6) = %v", rows)
	}
	sl, err := c.GroupBySlab("item")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sl.TableShape, sl.Lo, sl.Hi) != "[6] [3] [6]" || sl.At(5) != full.At(5) {
		t.Fatalf("SLAB GROUPBY item = %+v", sl)
	}
	// Dropping the partitioned dimension keeps the whole extent.
	sl, err = c.GroupBySlab("branch")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sl.Lo, sl.Hi) != "[0] [4]" {
		t.Fatalf("SLAB GROUPBY branch box [%v, %v)", sl.Lo, sl.Hi)
	}
	// An equality filter outside the block is an empty slab, in both codecs.
	sl, err = c.QuerySlab("GROUP BY branch WHERE item = 1")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Size() != 0 {
		t.Fatalf("slab outside the block holds %d cells", sl.Size())
	}
	if rows, err := c.Query("GROUP BY branch WHERE item = 1"); err != nil || len(rows) != 0 {
		t.Fatalf("text query outside the block = %v, %v", rows, err)
	}
	// A BETWEEN range re-bases the slab like Cube.Query re-bases the table.
	sl, err = c.QuerySlab("GROUP BY item WHERE item BETWEEN 2 AND 4")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sl.TableShape, sl.Lo, sl.Hi) != "[3] [1] [3]" || sl.At(1) != full.At(3) {
		t.Fatalf("SLAB QUERY with BETWEEN = %+v", sl)
	}
	var remote *RemoteError
	if _, err := c.QuerySlab("GROUP BY nope"); !errors.As(err, &remote) {
		t.Fatalf("bad statement: %v", err)
	}

	_, plain, _ := startServer(t)
	pc, err := Dial(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.GroupBySlab("item"); !errors.As(err, &remote) {
		t.Fatalf("SLAB on a server without a block: %v", err)
	}
	if _, err := pc.Total(); err != nil {
		t.Fatalf("connection out of sync after a refused SLAB: %v", err)
	}
}

// TestClientTimeoutBoundsWholeResponse: a server that trickles rows, each
// well inside the timeout but the whole response far beyond it, must not
// hold the client — the deadline covers the response, not each row.
func TestClientTimeoutBoundsWholeResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		fmt.Fprintln(conn, "OK 20")
		for i := 0; i < 20; i++ {
			select {
			case <-done:
				return
			case <-time.After(40 * time.Millisecond):
			}
			if _, err := fmt.Fprintf(conn, "%d 1\n", i); err != nil {
				return
			}
		}
		fmt.Fprintln(conn, ".")
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	c.SetTimeout(200 * time.Millisecond)
	start := time.Now()
	_, err = c.GroupBy("item")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("trickled response: err = %v, want an i/o timeout", err)
	}
	if d := time.Since(start); d > 600*time.Millisecond {
		t.Fatalf("timed out after %v; the 200ms bound was re-armed per row", d)
	}
}

// FuzzDecodeSlab feeds the slab decoder arbitrary headers and bodies. It
// must never panic, must bound every allocation before reading the body
// (a hostile shape product, an out-of-shape box and a short body are
// errors), and whatever it accepts must be a well-formed slab that
// re-encodes to the same bytes.
func FuzzDecodeSlab(f *testing.F) {
	var body bytes.Buffer
	for _, v := range []float64{1, 2, 3, 4} {
		body.Write(appendFloat64(nil, v))
	}
	f.Add("shape=4,5 lo=1,2 hi=3,4 cells=4", body.Bytes())
	f.Add("shape=- lo=- hi=- cells=1", body.Bytes()[:8])
	f.Add("shape=- lo=- hi=- cells=0", []byte{})
	f.Add("shape=8 lo=3 hi=3 cells=0", []byte{})
	f.Add("shape=4294967296,4294967296 lo=0,0 hi=1,1 cells=1", body.Bytes())
	f.Add("shape=9223372036854775807,2 lo=0,0 hi=1,1 cells=1", body.Bytes())
	f.Add("shape=4,5 lo=3,4 hi=5,6 cells=4", body.Bytes())
	f.Add("shape=4,5 lo=2,0 hi=1,5 cells=0", body.Bytes())
	f.Add("shape=1073741824 lo=0 hi=1073741824 cells=1073741824", body.Bytes())
	f.Add("shape=4,5 lo=1,2 hi=3,4 cells=4", body.Bytes()[:20])
	f.Add("shape=4 lo=0 hi=4", body.Bytes())
	f.Fuzz(func(t *testing.T, header string, body []byte) {
		sl, err := decodeSlab(bytes.NewReader(body), header)
		if err != nil {
			return
		}
		box := 1
		for i, e := range sl.TableShape {
			if sl.Lo[i] < 0 || sl.Lo[i] > sl.Hi[i] || sl.Hi[i] > e {
				t.Fatalf("accepted box [%v, %v) outside shape %v", sl.Lo, sl.Hi, sl.TableShape)
			}
			box *= sl.Hi[i] - sl.Lo[i]
		}
		if len(sl.Data) != box && (len(sl.TableShape) > 0 || len(sl.Data) > 1) {
			t.Fatalf("accepted %d cells for a box of %d", len(sl.Data), box)
		}
		if 8*len(sl.Data) > len(body) {
			t.Fatalf("decoded %d cells from a %d-byte body", len(sl.Data), len(body))
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		writeSlab(w, sl)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := 8 * len(sl.Data); !bytes.Equal(out.Bytes()[bytes.IndexByte(out.Bytes(), '\n')+1:], body[:want]) {
			t.Fatal("re-encoded body differs from the decoded bytes")
		}
	})
}

func appendFloat64(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b = append(b, byte(u>>(8*i)))
	}
	return b
}

package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"parcube"
)

// Slab is a block sub-cube's share of one answered group-by: the box
// [Lo, Hi) of a result table of extents TableShape, its cells densely
// in row-major order. By the paper's Lemma 1 a block contributes nothing
// outside its slab, so shard nodes answer the coordinator with slabs
// rather than whole tables, and a coordinator's merged answer is the
// slab covering every cell. Slab satisfies Result over the cells it
// holds: Size counts them and At panics outside the box.
type Slab struct {
	TableShape []int
	Lo, Hi     []int
	Data       []float64
}

// SlabBackend is an optional Backend refinement for shard nodes: it
// answers a group-by or query with the slab the schema box [lo, hi) —
// the node's block, at global coordinates — contributes. A shard server
// whose ShardInfo carries the block answers GROUPBY and QUERY (text) and
// SLAB (binary) from it.
type SlabBackend interface {
	GroupBySlab(lo, hi []int, dims ...string) (*Slab, error)
	QuerySlab(lo, hi []int, stmt string) (*Slab, error)
}

// TableSlab cuts tbl's slab for the schema box [lo, hi) (see
// parcube.Table.Slab). The cells are copied, so the slab outlives any
// lock guarding the table.
func TableSlab(tbl *parcube.Table, lo, hi []int) (*Slab, error) {
	slo, shi, data, err := tbl.Slab(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Slab{TableShape: tbl.Shape(), Lo: slo, Hi: shi, Data: data}, nil
}

// Shape returns the whole result table's extents.
func (s *Slab) Shape() []int { return append([]int(nil), s.TableShape...) }

// Size returns the number of cells the slab holds.
func (s *Slab) Size() int { return len(s.Data) }

// At returns the cell at result coordinates inside the slab's box; like
// the library's tables it panics on bad coordinates (the server recovers
// lookups).
func (s *Slab) At(coords ...int) float64 {
	if len(coords) != len(s.Lo) {
		panic(fmt.Sprintf("server: %d coordinates for %d dimensions", len(coords), len(s.Lo)))
	}
	off := 0
	for i, c := range coords {
		if c < s.Lo[i] || c >= s.Hi[i] {
			panic(fmt.Sprintf("server: coordinate %d outside slab range [%d,%d)", c, s.Lo[i], s.Hi[i]))
		}
		off = off*(s.Hi[i]-s.Lo[i]) + c - s.Lo[i]
	}
	return s.Data[off]
}

// Top returns the slab's k largest cells, ties broken by ascending
// coordinates — the contract of parcube.Table.Top, so sharded TOP
// answers match a single-node cube row for row.
func (s *Slab) Top(k int) []parcube.CellValue {
	out := make([]parcube.CellValue, 0, len(s.Data))
	coords := append([]int(nil), s.Lo...)
	for _, v := range s.Data {
		out = append(out, parcube.CellValue{Coords: append([]int(nil), coords...), Value: v})
		s.next(coords)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// next advances coords to the following cell of the box in row-major
// order.
func (s *Slab) next(coords []int) {
	for i := len(coords) - 1; i >= 0; i-- {
		coords[i]++
		if coords[i] < s.Hi[i] {
			return
		}
		coords[i] = s.Lo[i]
	}
}

// maxSlabCells bounds a decoded slab's table: the header's extents are
// untrusted wire input, so their product is capped (overflow-safe)
// before any allocation, at the same 1 GiB as a shipped checkpoint.
const maxSlabCells = int(maxShipBytes / 8)

// slabPrealloc caps the cells allocated ahead of the body: a short
// body claiming a huge slab costs memory in proportion to the bytes that
// actually arrive, not to the claim.
const slabPrealloc = 1 << 16

// writeSlab encodes a slab reply: the text header
// "OK shape=<s0,...> lo=<l0,...> hi=<h0,...> cells=<n>" ("-" for an
// empty list) and then n little-endian float64s, the slab's cells in
// row-major order — the header-then-bytes pattern of CKPTEXPORT.
func writeSlab(w *bufio.Writer, sl *Slab) {
	buf := make([]byte, 0, 4096)
	buf = append(buf, "OK shape="...)
	buf = appendCoords(buf, sl.TableShape)
	buf = append(buf, " lo="...)
	buf = appendCoords(buf, sl.Lo)
	buf = append(buf, " hi="...)
	buf = appendCoords(buf, sl.Hi)
	buf = append(buf, " cells="...)
	buf = strconv.AppendInt(buf, int64(len(sl.Data)), 10)
	buf = append(buf, '\n')
	for _, v := range sl.Data {
		if len(buf)+8 > cap(buf) {
			w.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	w.Write(buf)
}

// decodeSlab parses a slab reply's header payload (what follows "OK")
// and reads its cells from r. Every header bound is checked before the
// body is read, and the cells are allocated as they arrive.
func decodeSlab(r io.Reader, header string) (*Slab, error) {
	f := parseFields(header)
	shape, err := parseSlabList(f["shape"])
	if err != nil {
		return nil, fmt.Errorf("server: malformed slab shape: %w", err)
	}
	lo, err := parseSlabList(f["lo"])
	if err != nil {
		return nil, fmt.Errorf("server: malformed slab lo: %w", err)
	}
	hi, err := parseSlabList(f["hi"])
	if err != nil {
		return nil, fmt.Errorf("server: malformed slab hi: %w", err)
	}
	cells, err := strconv.Atoi(f["cells"])
	if err != nil {
		return nil, fmt.Errorf("server: malformed slab cell count %q", f["cells"])
	}
	if len(lo) != len(shape) || len(hi) != len(shape) {
		return nil, fmt.Errorf("server: slab bounds rank %d/%d for shape rank %d", len(lo), len(hi), len(shape))
	}
	size, box := 1, 1
	for i, e := range shape {
		if e < 1 || size > maxSlabCells/e {
			return nil, fmt.Errorf("server: implausible slab shape %q", f["shape"])
		}
		size *= e
		if lo[i] < 0 || lo[i] > hi[i] || hi[i] > e {
			return nil, fmt.Errorf("server: slab box [%s, %s) outside shape %s", f["lo"], f["hi"], f["shape"])
		}
		box *= hi[i] - lo[i]
	}
	if cells != box && (len(shape) > 0 || cells != 0) {
		return nil, fmt.Errorf("server: slab declares %d cells for box [%s, %s)", cells, f["lo"], f["hi"])
	}
	sl := &Slab{TableShape: shape, Lo: lo, Hi: hi}
	if cells == 0 {
		return sl, nil
	}
	sl.Data = make([]float64, 0, min(cells, slabPrealloc))
	var chunk [4096]byte
	for len(sl.Data) < cells {
		n := min(cells-len(sl.Data), len(chunk)/8)
		if _, err := io.ReadFull(r, chunk[:n*8]); err != nil {
			return nil, fmt.Errorf("server: slab body: %w", err)
		}
		for i := 0; i < n; i++ {
			sl.Data = append(sl.Data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i*8:])))
		}
	}
	return sl, nil
}

// parseSlabList parses a slab header's "a,b,c" list of non-negative
// integers ("-" is empty).
func parseSlabList(s string) ([]int, error) {
	if s == "-" {
		return []int{}, nil
	}
	return parseDeltaCoords(s)
}

// appendCoords renders coordinates as "3,1,4" ("-" for none).
func appendCoords(buf []byte, coords []int) []byte {
	if len(coords) == 0 {
		return append(buf, '-')
	}
	for i, c := range coords {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	return buf
}

// appendRow renders one text row "<c0,c1,...> <value>\n" — byte for byte
// what fmt's "%s %g\n" made of joined coordinates and the value.
func appendRow(buf []byte, coords []int, v float64) []byte {
	buf = appendCoords(buf, coords)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	return append(buf, '\n')
}

// parseRow decodes one text row "<c0,c1,...> <value>" (already trimmed).
// Coordinates are carved out of *backing, refilled in chunks, so a table
// of rows costs a few allocations rather than one per row.
func parseRow(line string, backing *[]int) (Row, error) {
	cf, vf, ok := strings.Cut(line, " ")
	vf = strings.TrimLeft(vf, " ")
	if !ok || cf == "" || vf == "" || strings.IndexByte(vf, ' ') >= 0 {
		return Row{}, fmt.Errorf("server: malformed row %q", line)
	}
	var coords []int
	if cf != "-" {
		rank := strings.Count(cf, ",") + 1
		if cap(*backing)-len(*backing) < rank {
			*backing = make([]int, 0, max(rank, 1024))
		}
		start := len(*backing)
		for rest := cf; ; {
			part, tail, more := strings.Cut(rest, ",")
			c, err := strconv.Atoi(part)
			if err != nil {
				return Row{}, fmt.Errorf("server: malformed coords %q", cf)
			}
			*backing = append(*backing, c)
			if !more {
				break
			}
			rest = tail
		}
		coords = (*backing)[start:len(*backing):len(*backing)]
	}
	v, err := strconv.ParseFloat(vf, 64)
	if err != nil {
		return Row{}, fmt.Errorf("server: malformed value %q", vf)
	}
	return Row{Coords: coords, Value: v}, nil
}

package parcube

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"parcube/internal/array"
	"parcube/internal/cubeio"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

// Range selects [Lo, Hi) along one dimension in a Dice call.
type Range struct {
	Lo, Hi int
}

// Dice restricts the table to coordinate ranges — the OLAP dice operation.
// Dimensions absent from ranges keep their full extent. Coordinates of the
// result are re-based to each range's Lo.
func (t *Table) Dice(ranges map[string]Range) (*Table, error) {
	rank := len(t.names)
	lo := make([]int, rank)
	hi := make([]int, rank)
	shape := t.data.Shape()
	copy(hi, shape)
	dims := t.mask.Dims()
	blo, bhi := t.bounds()
	for name, r := range ranges {
		axis, err := t.axisOf(name)
		if err != nil {
			return nil, err
		}
		if r.Lo < 0 || r.Hi > shape[axis] || r.Lo >= r.Hi {
			return nil, fmt.Errorf("parcube: range [%d,%d) invalid for %q (extent %d)", r.Lo, r.Hi, name, shape[axis])
		}
		lo[axis], hi[axis] = r.Lo, r.Hi
		s := dims[axis]
		blo[s], bhi[s] = blo[s]+r.Lo, blo[s]+r.Hi
	}
	return &Table{
		names:       append([]string(nil), t.names...),
		schemaNames: t.schemaNames,
		mask:        t.mask,
		data:        t.data.Crop(lo, hi),
		op:          t.op,
		lo:          blo,
		hi:          bhi,
		rebinned:    t.rebinned,
	}, nil
}

// RangeTotal aggregates the table over coordinate ranges in one call —
// "sales of items 10..19 during weeks 0..3". Dimensions absent from ranges
// aggregate over their full extent.
func (t *Table) RangeTotal(ranges map[string]Range) (float64, error) {
	diced, err := t.Dice(ranges)
	if err != nil {
		return 0, err
	}
	total := t.op.Identity()
	for _, v := range diced.data.Data() {
		total = t.op.Combine(total, v)
	}
	return total, nil
}

// ReadDatasetCSV loads a fact table written by WriteCSV (or cubegen): a
// header naming the dimensions plus "value", then coordinate rows. The
// header names must match the schema.
func ReadDatasetCSV(r io.Reader, schema *Schema) (*Dataset, error) {
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return nil, err
	}
	sparse, names, err := cubeio.ReadCSV(r, shape)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		if name != schema.names[i] {
			return nil, fmt.Errorf("parcube: CSV column %d is %q, schema has %q", i, name, schema.names[i])
		}
	}
	ds := NewDataset(schema)
	var addErr error
	sparse.Iter(func(coords []int, v float64) {
		if addErr == nil {
			addErr = ds.Add(v, coords...)
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	return ds, nil
}

// WriteDatasetCSV writes the dataset's distinct cells as a fact table.
// It freezes the dataset.
func WriteDatasetCSV(w io.Writer, d *Dataset) error {
	return cubeio.WriteCSV(w, d.schema.Names(), d.freeze())
}

// ReadCubeSnapshot loads a cube previously serialized with WriteSnapshot.
// Snapshots do not carry the aggregator, so the caller restates it (it
// only affects further Rollup/RangeTotal semantics). The loaded cube
// answers every proper group-by; the full-dimensional group-by needs the
// original dataset and is not available from a snapshot.
func ReadCubeSnapshot(r io.Reader, schema *Schema, aggregator Aggregator) (*Cube, error) {
	if !aggregator.op().Valid() {
		return nil, fmt.Errorf("parcube: invalid aggregator %d", int(aggregator))
	}
	store, err := cubeio.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	// Validate shapes against the schema.
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return nil, err
	}
	for _, mask := range store.Masks() {
		a, _ := store.Get(mask)
		want := shape.Keep(mask.Dims())
		if !a.Shape().Equal(want) {
			return nil, fmt.Errorf("parcube: snapshot group-by %b has shape %v, schema implies %v",
				mask, a.Shape(), want)
		}
	}
	if store.Len() != (1<<uint(schema.Dims()))-1 {
		return nil, fmt.Errorf("parcube: snapshot has %d group-bys, schema implies %d",
			store.Len(), (1<<uint(schema.Dims()))-1)
	}
	return &Cube{schema: schema, store: store, input: nil, op: aggregator.op()}, nil
}

// Cube state format (little endian):
//
//	magic    [8]byte "PCSTATE1"
//	snapLen  uint64  length of the snapshot section
//	snapshot snapLen bytes (cubeio snapshot of every group-by, CRC-footed)
//	hasInput uint8   1 when the merged fact table follows
//	inLen    uint64  length of the sparse section (when hasInput == 1)
//	input    inLen bytes (cubeio chunked sparse binary)
//
// Unlike a bare snapshot, cube state carries the merged fact table, so a
// restored cube still answers the full-dimensional group-by and still
// accepts deltas (Update needs the stored input for Count/Max/Min
// overlap checks and full-mask consistency). This is the unit the
// durability layer checkpoints.
const stateMagic = "PCSTATE1"

// maxStateSection bounds the declared length of one state section. The
// lengths are read back from disk, so the decoder refuses implausible
// claims before allocating (the untrusted-alloc discipline): group-by
// stores and fact tables beyond this bound do not arise from cubes this
// library can build in memory.
const maxStateSection = int64(1) << 34 // 16 GiB

// WriteState serializes the cube's complete state: every group-by plus
// the merged fact table.
func (c *Cube) WriteState(w io.Writer) error {
	var snap bytes.Buffer
	if err := cubeio.WriteSnapshot(&snap, c.store); err != nil {
		return err
	}
	if _, err := io.WriteString(w, stateMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(snap.Len())); err != nil {
		return err
	}
	if _, err := w.Write(snap.Bytes()); err != nil {
		return err
	}
	if c.input == nil {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{1}); err != nil {
		return err
	}
	var in bytes.Buffer
	if err := cubeio.WriteSparseBinary(&in, c.input); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(in.Len())); err != nil {
		return err
	}
	_, err := w.Write(in.Bytes())
	return err
}

// ReadCubeState restores a cube serialized by WriteState. Like snapshot
// loading, the aggregator is restated by the caller; unlike a snapshot,
// the restored cube answers the full-dimensional group-by and accepts
// further deltas.
func ReadCubeState(r io.Reader, schema *Schema, aggregator Aggregator) (*Cube, error) {
	if !aggregator.op().Valid() {
		return nil, fmt.Errorf("parcube: invalid aggregator %d", int(aggregator))
	}
	magic := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("parcube: reading state magic: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("parcube: bad state magic %q", magic)
	}
	var snapLen uint64
	if err := binary.Read(r, binary.LittleEndian, &snapLen); err != nil {
		return nil, err
	}
	if int64(snapLen) > maxStateSection {
		return nil, fmt.Errorf("parcube: implausible snapshot section of %d bytes", snapLen)
	}
	store, err := cubeio.ReadSnapshot(io.LimitReader(r, int64(snapLen)))
	if err != nil {
		return nil, err
	}
	if err := validateStore(store, schema, "state"); err != nil {
		return nil, err
	}
	var hasInput [1]byte
	if _, err := io.ReadFull(r, hasInput[:]); err != nil {
		return nil, fmt.Errorf("parcube: reading state input flag: %w", err)
	}
	cube := &Cube{schema: schema, store: store, input: nil, op: aggregator.op()}
	if hasInput[0] == 0 {
		return cube, nil
	}
	var inLen uint64
	if err := binary.Read(r, binary.LittleEndian, &inLen); err != nil {
		return nil, err
	}
	if int64(inLen) > maxStateSection {
		return nil, fmt.Errorf("parcube: implausible input section of %d bytes", inLen)
	}
	sc, err := cubeio.NewSparseScanner(io.LimitReader(r, int64(inLen)))
	if err != nil {
		return nil, err
	}
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return nil, err
	}
	if !sc.Shape().Equal(shape) {
		return nil, fmt.Errorf("parcube: state input has shape %v, schema implies %v", sc.Shape(), shape)
	}
	builder, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		return nil, err
	}
	var addErr error
	sc.Iter(func(coords []int, v float64) {
		if addErr == nil {
			addErr = builder.Add(coords, v)
		}
	})
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parcube: state input: %w", err)
	}
	if addErr != nil {
		return nil, addErr
	}
	cube.input = builder.Build()
	return cube, nil
}

// ReadCubeStateBlock restores a cube from WriteState output restricted
// to the axis-aligned block [lo, hi): the serialized group-by snapshot
// is skipped (its tables aggregate the WHOLE source cube, which is
// wrong for a sub-block) and the cube is rebuilt from the fact-table
// section's cells inside the block. This is how a split migration seeds
// a child shard from its parent's checkpoint — the parent ships one
// state blob and each child extracts exactly its half. The state must
// carry its fact table (durable checkpoints always do); a snapshot-only
// state cannot be restricted and is refused.
func ReadCubeStateBlock(r io.Reader, schema *Schema, aggregator Aggregator, lo, hi []int) (*Cube, error) {
	if !aggregator.op().Valid() {
		return nil, fmt.Errorf("parcube: invalid aggregator %d", int(aggregator))
	}
	if len(lo) != schema.Dims() || len(hi) != schema.Dims() {
		return nil, fmt.Errorf("parcube: block rank %d/%d, schema has %d dimensions", len(lo), len(hi), schema.Dims())
	}
	for j, s := range schema.Sizes() {
		if lo[j] < 0 || hi[j] > s || lo[j] >= hi[j] {
			return nil, fmt.Errorf("parcube: block [%d,%d) out of range [0,%d) on dimension %d", lo[j], hi[j], s, j)
		}
	}
	magic := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("parcube: reading state magic: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("parcube: bad state magic %q", magic)
	}
	var snapLen uint64
	if err := binary.Read(r, binary.LittleEndian, &snapLen); err != nil {
		return nil, err
	}
	if int64(snapLen) > maxStateSection {
		return nil, fmt.Errorf("parcube: implausible snapshot section of %d bytes", snapLen)
	}
	if _, err := io.CopyN(io.Discard, r, int64(snapLen)); err != nil {
		return nil, fmt.Errorf("parcube: skipping state snapshot: %w", err)
	}
	var hasInput [1]byte
	if _, err := io.ReadFull(r, hasInput[:]); err != nil {
		return nil, fmt.Errorf("parcube: reading state input flag: %w", err)
	}
	if hasInput[0] == 0 {
		return nil, fmt.Errorf("parcube: state has no fact table; cannot restrict to a block")
	}
	var inLen uint64
	if err := binary.Read(r, binary.LittleEndian, &inLen); err != nil {
		return nil, err
	}
	if int64(inLen) > maxStateSection {
		return nil, fmt.Errorf("parcube: implausible input section of %d bytes", inLen)
	}
	sc, err := cubeio.NewSparseScanner(io.LimitReader(r, int64(inLen)))
	if err != nil {
		return nil, err
	}
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return nil, err
	}
	if !sc.Shape().Equal(shape) {
		return nil, fmt.Errorf("parcube: state input has shape %v, schema implies %v", sc.Shape(), shape)
	}
	ds := NewDataset(schema)
	var addErr error
	sc.Iter(func(coords []int, v float64) {
		if addErr != nil {
			return
		}
		for j, c := range coords {
			if c < lo[j] || c >= hi[j] {
				return
			}
		}
		addErr = ds.Add(v, coords...)
	})
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parcube: state input: %w", err)
	}
	if addErr != nil {
		return nil, addErr
	}
	cube, _, err := Build(ds, WithAggregator(aggregator))
	if err != nil {
		return nil, fmt.Errorf("parcube: rebuilding block state: %w", err)
	}
	return cube, nil
}

// validateStore cross-checks a deserialized store against the schema:
// every group-by shaped as the schema implies, and all 2^n - 1 present.
func validateStore(store *seq.Store, schema *Schema, what string) error {
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return err
	}
	for _, mask := range store.Masks() {
		a, _ := store.Get(mask)
		want := shape.Keep(mask.Dims())
		if !a.Shape().Equal(want) {
			return fmt.Errorf("parcube: %s group-by %b has shape %v, schema implies %v",
				what, mask, a.Shape(), want)
		}
	}
	if store.Len() != (1<<uint(schema.Dims()))-1 {
		return fmt.Errorf("parcube: %s has %d group-bys, schema implies %d",
			what, store.Len(), (1<<uint(schema.Dims()))-1)
	}
	return nil
}

// SaveDir persists the cube's group-bys to a directory (one binary file
// per group-by plus a manifest). The dataset itself is not stored; save it
// separately with WriteDatasetCSV if full-dimensional queries must survive
// the round trip.
func (c *Cube) SaveDir(dir string) error {
	store, err := cubeio.NewDirStore(dir, c.schema.Names())
	if err != nil {
		return err
	}
	for _, mask := range c.store.Masks() {
		a, _ := c.store.Get(mask)
		if err := store.WriteBack(mask, a); err != nil {
			return err
		}
	}
	return store.Flush()
}

// LoadCubeDir opens a cube previously saved with SaveDir. Like snapshot
// loading, the result answers every proper group-by; the full-dimensional
// group-by needs the original dataset.
func LoadCubeDir(dir string, schema *Schema, aggregator Aggregator) (*Cube, error) {
	if !aggregator.op().Valid() {
		return nil, fmt.Errorf("parcube: invalid aggregator %d", int(aggregator))
	}
	ds, err := cubeio.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	store, err := ds.ToStore()
	if err != nil {
		return nil, err
	}
	shape, err := nd.NewShape(schema.Sizes()...)
	if err != nil {
		return nil, err
	}
	for _, mask := range store.Masks() {
		a, _ := store.Get(mask)
		want := shape.Keep(mask.Dims())
		if !a.Shape().Equal(want) {
			return nil, fmt.Errorf("parcube: stored group-by %b has shape %v, schema implies %v", mask, a.Shape(), want)
		}
	}
	if store.Len() != (1<<uint(schema.Dims()))-1 {
		return nil, fmt.Errorf("parcube: directory has %d group-bys, schema implies %d",
			store.Len(), (1<<uint(schema.Dims()))-1)
	}
	return &Cube{schema: schema, store: store, input: nil, op: aggregator.op()}, nil
}

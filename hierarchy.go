package parcube

import (
	"fmt"

	"parcube/internal/array"
)

// Hierarchy maps a dimension's fine coordinates onto a coarser level —
// days onto months, SKUs onto categories. Mapping[c] is the coarse
// coordinate of fine coordinate c and must lie in [0, Size).
type Hierarchy struct {
	// Name labels the coarse level, e.g. "month".
	Name string
	// Size is the number of coarse coordinate values.
	Size int
	// Mapping has one entry per fine coordinate.
	Mapping []int
}

// Validate checks the hierarchy against a fine extent.
func (h Hierarchy) Validate(fineSize int) error {
	if h.Name == "" {
		return fmt.Errorf("parcube: hierarchy needs a name")
	}
	if h.Size < 1 {
		return fmt.Errorf("parcube: hierarchy %q has non-positive size %d", h.Name, h.Size)
	}
	if len(h.Mapping) != fineSize {
		return fmt.Errorf("parcube: hierarchy %q maps %d coordinates, dimension has %d", h.Name, len(h.Mapping), fineSize)
	}
	for c, m := range h.Mapping {
		if m < 0 || m >= h.Size {
			return fmt.Errorf("parcube: hierarchy %q maps %d to %d, outside [0,%d)", h.Name, c, m, h.Size)
		}
	}
	return nil
}

// Uniform returns a hierarchy grouping every `groupSize` consecutive fine
// coordinates into one coarse coordinate (e.g. 52 weeks -> 13 four-week
// periods).
func Uniform(name string, fineSize, groupSize int) (Hierarchy, error) {
	if groupSize < 1 || fineSize < 1 {
		return Hierarchy{}, fmt.Errorf("parcube: invalid uniform hierarchy %d/%d", fineSize, groupSize)
	}
	mapping := make([]int, fineSize)
	for c := range mapping {
		mapping[c] = c / groupSize
	}
	return Hierarchy{
		Name:    name,
		Size:    (fineSize + groupSize - 1) / groupSize,
		Mapping: mapping,
	}, nil
}

// RollupWith re-bins one of the table's dimensions through a hierarchy,
// returning the coarser table. The coarse dimension keeps its position and
// takes the hierarchy's name.
func (t *Table) RollupWith(dim string, h Hierarchy) (*Table, error) {
	axis, err := t.axisOf(dim)
	if err != nil {
		return nil, err
	}
	if err := h.Validate(t.data.Shape()[axis]); err != nil {
		return nil, err
	}
	names := append([]string(nil), t.names...)
	names[axis] = h.Name
	schemaNames := append([]string(nil), t.schemaNames...)
	schemaIdx := t.mask.Dims()[axis]
	if schemaIdx < len(schemaNames) {
		schemaNames[schemaIdx] = h.Name
	}
	return &Table{
		names:       names,
		schemaNames: schemaNames,
		mask:        t.mask,
		data:        array.MapAxis(t.data, axis, h.Mapping, h.Size, t.op),
		op:          t.op,
		lo:          t.lo,
		hi:          t.hi,
		rebinned:    true,
	}, nil
}

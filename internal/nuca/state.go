package nuca

import (
	"fmt"
	"slices"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/mem"
)

// SNUCAState is the functional contents of a SNUCA cache: one array state
// per bank, in bank order. Exported for gob encoding by the checkpoint
// store.
type SNUCAState struct {
	Banks []cache.SetAssocState
}

// SnapshotState implements l2.Snapshotter.
func (s *SNUCA) SnapshotState() l2.State {
	st := SNUCAState{Banks: make([]cache.SetAssocState, len(s.banks))}
	for i, b := range s.banks {
		st.Banks[i] = b.Array.Snapshot()
	}
	return st
}

// RestoreState implements l2.Snapshotter.
func (s *SNUCA) RestoreState(state l2.State) error {
	st, ok := state.(SNUCAState)
	if !ok {
		return fmt.Errorf("nuca: restoring %T into SNUCA", state)
	}
	if len(st.Banks) != len(s.banks) {
		return fmt.Errorf("nuca: state has %d banks, SNUCA has %d", len(st.Banks), len(s.banks))
	}
	for i, b := range s.banks {
		if err := b.Array.Restore(st.Banks[i]); err != nil {
			return fmt.Errorf("nuca: bank %d: %w", i, err)
		}
	}
	return nil
}

// Validate checks that a decoded state is one SnapshotState could have
// produced: every bank array passes cache.SetAssocState.Validate.
func (st SNUCAState) Validate() error {
	for i, b := range st.Banks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("nuca: bank %d: %w", i, err)
		}
	}
	return nil
}

// DNUCAState is the functional contents of a DNUCA cache: the per-column,
// per-row bank arrays plus the controller's partial-tag shadows (which must
// stay consistent with the arrays, so they are captured rather than
// rebuilt).
type DNUCAState struct {
	// Banks[col][row] mirrors the banks layout.
	Banks [][]cache.SetAssocState
	PTags []cache.PartialTagsState
}

// SnapshotState implements l2.Snapshotter.
func (d *DNUCA) SnapshotState() l2.State {
	st := DNUCAState{
		Banks: make([][]cache.SetAssocState, len(d.banks)),
		PTags: make([]cache.PartialTagsState, len(d.ptags)),
	}
	for c, col := range d.banks {
		st.Banks[c] = make([]cache.SetAssocState, len(col))
		for r, b := range col {
			st.Banks[c][r] = b.Array.Snapshot()
		}
	}
	for i, p := range d.ptags {
		st.PTags[i] = p.Snapshot()
	}
	return st
}

// RestoreState implements l2.Snapshotter.
func (d *DNUCA) RestoreState(state l2.State) error {
	st, ok := state.(DNUCAState)
	if !ok {
		return fmt.Errorf("nuca: restoring %T into DNUCA", state)
	}
	if len(st.Banks) != len(d.banks) || len(st.PTags) != len(d.ptags) {
		return fmt.Errorf("nuca: state has %d columns/%d ptags, DNUCA has %d/%d",
			len(st.Banks), len(st.PTags), len(d.banks), len(d.ptags))
	}
	for c, col := range d.banks {
		if len(st.Banks[c]) != len(col) {
			return fmt.Errorf("nuca: state column %d has %d rows, DNUCA has %d", c, len(st.Banks[c]), len(col))
		}
		for r, b := range col {
			if err := b.Array.Restore(st.Banks[c][r]); err != nil {
				return fmt.Errorf("nuca: bank %d/%d: %w", c, r, err)
			}
		}
	}
	for i, p := range d.ptags {
		if err := p.Restore(st.PTags[i]); err != nil {
			return fmt.Errorf("nuca: ptag %d: %w", i, err)
		}
	}
	return nil
}

// Validate checks that a decoded state is one SnapshotState could have
// produced: every bank array and shadow is well formed, each column's
// shadow agrees entry for entry with its rows (lookups trust it), and no
// block is resident in two rows of its column.
func (st DNUCAState) Validate() error {
	if len(st.PTags) != len(st.Banks) {
		return fmt.Errorf("nuca: state has %d columns and %d ptags", len(st.Banks), len(st.PTags))
	}
	for c, col := range st.Banks {
		for r, b := range col {
			if err := b.Validate(); err != nil {
				return fmt.Errorf("nuca: bank %d/%d: %w", c, r, err)
			}
		}
		pt := st.PTags[c]
		if err := pt.Validate(); err != nil {
			return fmt.Errorf("nuca: ptag %d: %w", c, err)
		}
		if err := pt.CheckShadows(col); err != nil {
			return fmt.Errorf("nuca: ptag %d: %w", c, err)
		}
		if err := oneRowPerBlock(col); err != nil {
			return fmt.Errorf("nuca: column %d: %w", c, err)
		}
	}
	return nil
}

// oneRowPerBlock reports a block resident in two rows of one column. The
// rows share one geometry (CheckShadows has checked it).
func oneRowPerBlock(rows []cache.SetAssocState) error {
	if len(rows) == 0 {
		return nil
	}
	sets, assoc := rows[0].Sets, rows[0].Assoc
	var seen []mem.Block
	for set := 0; set < sets; set++ {
		seen = seen[:0]
		for _, a := range rows {
			for i := set * assoc; i < (set+1)*assoc; i++ {
				if !a.Valid[i] {
					continue
				}
				if slices.Contains(seen, a.Lines[i]) {
					return fmt.Errorf("block %#x resident in two rows", uint64(a.Lines[i]))
				}
				seen = append(seen, a.Lines[i])
			}
		}
	}
	return nil
}

package tlcache

import (
	"fmt"

	"tlc/internal/cache"
	"tlc/internal/l2"
)

// State is the functional contents of a TLC design: the per-group
// complete-tag arrays plus their partial-tag shadows (captured together so
// the shadows stay consistent without a rebuild). Exported for gob encoding
// by the checkpoint store.
type State struct {
	Groups []cache.SetAssocState
	PTags  []cache.PartialTagsState
}

// SnapshotState implements l2.Snapshotter.
func (c *Cache) SnapshotState() l2.State {
	st := State{
		Groups: make([]cache.SetAssocState, len(c.groups)),
		PTags:  make([]cache.PartialTagsState, len(c.ptags)),
	}
	for i, g := range c.groups {
		st.Groups[i] = g.Snapshot()
	}
	for i, p := range c.ptags {
		st.PTags[i] = p.Snapshot()
	}
	return st
}

// RestoreState implements l2.Snapshotter.
func (c *Cache) RestoreState(state l2.State) error {
	st, ok := state.(State)
	if !ok {
		return fmt.Errorf("tlcache: restoring %T into a TLC cache", state)
	}
	if len(st.Groups) != len(c.groups) || len(st.PTags) != len(c.ptags) {
		return fmt.Errorf("tlcache: state has %d groups/%d ptags, cache has %d/%d",
			len(st.Groups), len(st.PTags), len(c.groups), len(c.ptags))
	}
	for i, g := range c.groups {
		if err := g.Restore(st.Groups[i]); err != nil {
			return fmt.Errorf("tlcache: group %d: %w", i, err)
		}
	}
	for i, p := range c.ptags {
		if err := p.Restore(st.PTags[i]); err != nil {
			return fmt.Errorf("tlcache: ptag %d: %w", i, err)
		}
	}
	return nil
}

// Validate checks that a decoded state is one SnapshotState could have
// produced: every group array and shadow is well formed, and each shadow
// is either unused (designs without in-bank partial tags never fill it)
// or agrees entry for entry with its group.
func (st State) Validate() error {
	if len(st.PTags) != len(st.Groups) {
		return fmt.Errorf("tlcache: state has %d groups and %d ptags", len(st.Groups), len(st.PTags))
	}
	for i, g := range st.Groups {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("tlcache: group %d: %w", i, err)
		}
		pt := st.PTags[i]
		if err := pt.Validate(); err != nil {
			return fmt.Errorf("tlcache: ptag %d: %w", i, err)
		}
		if pt.Unused() {
			continue
		}
		if err := pt.CheckShadows([]cache.SetAssocState{g}); err != nil {
			return fmt.Errorf("tlcache: ptag %d: %w", i, err)
		}
	}
	return nil
}

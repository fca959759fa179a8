package engine

import "bopsim/internal/uncore"

// EditSnapshotUncore decodes a snapshot, applies edit to its uncore state
// and re-encodes it, so tests can build snapshots that pass every container
// check yet carry corrupt component state.
func EditSnapshotUncore(data []byte, edit func(*uncore.State)) ([]byte, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	edit(&snap.Uncore)
	return encodeSnapshot(snap)
}

package events

import (
	"encoding/json"
	"errors"
	"time"
)

// Checkpoint is a folded snapshot of everything the journal prefix up to
// Seq produces: the campaign aggregate (counters plus the full progress
// time series, so /v1/progress stays byte-identical across a compacted
// restart) and the dispatcher's serialised state. Restart = load the
// newest valid checkpoint + replay only the tail with Seq > Seq — O(tail),
// not O(lifetime).
type Checkpoint struct {
	// Seq is the sequence number of the last event folded into this
	// checkpoint; replay resumes at Seq+1.
	Seq uint64 `json:"seq"`
	// T is the checkpoint's write time (informational).
	T time.Time `json:"t"`
	// Counters and Points are the campaign aggregate at Seq.
	Counters Counters `json:"counters"`
	Points   []Point  `json:"points,omitempty"`
	// Dispatch is the dispatcher's serialised state at Seq (see
	// dispatch.State); empty when the checkpoint writer ran without a
	// dispatcher (library and benchmark use).
	Dispatch json.RawMessage `json:"dispatch,omitempty"`
}

// Sentinel errors surfaced by the DirStore and its Journal segments.
var (
	// ErrCorrupt marks a stored event line that no longer parses. Only the
	// final line of the active segment can legitimately be torn (and is
	// truncated away at open), so mid-file corruption is a real integrity
	// failure — it is surfaced, counted in
	// snaptask_events_journal_corrupt_total, and never silently conflated
	// with the benign concurrent-append fragment case.
	ErrCorrupt = errors.New("events: journal corrupt")
	// ErrTruncated marks a read of history older than the compaction
	// horizon: the events are gone, their folded effect lives in the
	// newest checkpoint. SSE clients resuming from before the horizon get
	// an explicit history_truncated signal instead.
	ErrTruncated = errors.New("events: history truncated by compaction")
	// ErrSeqRegression marks an append whose sequence number is not the
	// successor of the last stored event. The store poisons itself on the
	// first regression so a looping caller bug cannot shred the file.
	ErrSeqRegression = errors.New("events: non-monotonic event sequence")
)

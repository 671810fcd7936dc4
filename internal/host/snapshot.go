package host

import "injectable/internal/sim"

// Snapshot is an immutable capture of a World's complete simulation state:
// the scheduler (event heap, free list, generations), every random stream's
// position, the medium's in-flight transmissions and caches, all device
// link-layer and clock state, the observability hub, and every extra root
// registered with AddSnapshotRoot. Create with World.Snapshot, roll back
// with World.Fork.
type Snapshot struct {
	w   *World
	cap *sim.Capture
}

// AddSnapshotRoot registers extra objects a Snapshot must capture. The
// snapshot engine reaches state through struct fields, slices, maps and
// interfaces — but not through callback closures, so any stateful object
// attached to the world only via callbacks (Peripheral/Central wrappers,
// device models, attacker tooling) must be registered here before
// Snapshot is taken. Each root must be a pointer.
func (w *World) AddSnapshotRoot(roots ...any) {
	w.roots = append(w.roots, roots...)
}

// Snapshot deep-captures the world. The capture is cheap relative to the
// warm-up it amortises (one typed copy per reachable object) and does not
// disturb the world: simulation can continue immediately.
func (w *World) Snapshot() *Snapshot {
	// The stream list is bookkeeping, not simulation state: keep it out of
	// the capture so a restore never resurrects a list (or the streams
	// only it still references) from an earlier walk.
	w.streams = nil
	roots := make([]any, 0, 2+len(w.devices)+len(w.roots))
	roots = append(roots, w)
	for _, d := range w.devices {
		roots = append(roots, d)
	}
	roots = append(roots, w.roots...)
	c := sim.CaptureRoots(roots...)
	w.noteStreams(c.RNGs())
	return &Snapshot{w: w, cap: c}
}

// Fork rolls this world back to the snapshot, beginning a new timeline
// from the captured instant. Forking is restore-in-place: scheduled
// callbacks close over this world's object graph, so a snapshot can only
// ever be resumed inside the world it was taken from (parallel trials each
// warm their own world — the campaign engine keeps one per worker). Events
// scheduled and state mutated after the snapshot are discarded; EventRefs
// issued before it become valid again. Fork may be called any number of
// times on the same snapshot.
func (w *World) Fork(s *Snapshot) {
	if s.w != w {
		panic("host: forking a snapshot taken from a different world")
	}
	s.cap.Restore()
	w.noteStreams(s.cap.RNGs())
}

// worldStamp identifies a world state for the stream list: the counters
// move whenever an event is scheduled or run or a device or root is added,
// which is how new streams become reachable. Fork rolls them back with the
// rest of the world.
type worldStamp struct {
	scheduled, processed uint64
	devices, roots       int
}

func (w *World) stamp() worldStamp {
	return worldStamp{w.Sched.Scheduled(), w.Sched.Processed(), len(w.devices), len(w.roots)}
}

// noteStreams records the stream list a capture walk found for the world's
// current state.
func (w *World) noteStreams(rngs []*sim.RNG) {
	w.streams, w.streamsAt = rngs, w.stamp()
}

// RekeyStreams deterministically reseeds every random stream reachable in
// the world — the world stream, per-device and clock streams, the medium's
// stream, and streams held by registered snapshot roots — deriving each
// stream's new seed from its own construction seed and salt. Two worlds
// with identical stream identities rekeyed with the same salt produce
// identical subsequent draws, which is what makes a forked trial
// byte-identical to a fresh world warmed the same way and rekeyed with the
// same salt. Call it immediately after Fork to give each forked trial
// independent randomness.
//
// The streams are the ones the last Snapshot or Fork found, so rekeying a
// fork costs one store per stream (each reseeds on its first draw). A
// world that scheduled or ran an event, or gained a device or root, since
// then may hold streams that list lacks: it takes a new capture walk
// first, as a never-snapshotted world does.
func (w *World) RekeyStreams(salt uint64) {
	if w.streams == nil || w.streamsAt != w.stamp() {
		w.Snapshot()
	}
	for _, g := range w.streams {
		g.Rekey(salt)
	}
}
